#include "predict/trace.hpp"

#include <algorithm>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"

namespace dlap {

void TraceContext::gemm(Trans transa, Trans transb, index_t m, index_t n,
                        index_t k, double alpha, const double*, index_t lda,
                        const double*, index_t ldb, double beta, double*,
                        index_t ldc) {
  KernelCall c;
  c.routine = RoutineId::Gemm;
  c.flags = {to_char(transa), to_char(transb)};
  c.sizes = {m, n, k};
  c.scalars = {alpha, beta};
  c.leads = {lda, ldb, ldc};
  trace_.push_back(std::move(c));
}

void TraceContext::trsm(Side side, Uplo uplo, Trans transa, Diag diag,
                        index_t m, index_t n, double alpha, const double*,
                        index_t lda, double*, index_t ldb) {
  KernelCall c;
  c.routine = RoutineId::Trsm;
  c.flags = {to_char(side), to_char(uplo), to_char(transa), to_char(diag)};
  c.sizes = {m, n};
  c.scalars = {alpha};
  c.leads = {lda, ldb};
  trace_.push_back(std::move(c));
}

void TraceContext::trmm(Side side, Uplo uplo, Trans transa, Diag diag,
                        index_t m, index_t n, double alpha, const double*,
                        index_t lda, double*, index_t ldb) {
  KernelCall c;
  c.routine = RoutineId::Trmm;
  c.flags = {to_char(side), to_char(uplo), to_char(transa), to_char(diag)};
  c.sizes = {m, n};
  c.scalars = {alpha};
  c.leads = {lda, ldb};
  trace_.push_back(std::move(c));
}

void TraceContext::syrk(Uplo uplo, Trans trans, index_t n, index_t k,
                        double alpha, const double*, index_t lda, double beta,
                        double*, index_t ldc) {
  KernelCall c;
  c.routine = RoutineId::Syrk;
  c.flags = {to_char(uplo), to_char(trans)};
  c.sizes = {n, k};
  c.scalars = {alpha, beta};
  c.leads = {lda, ldc};
  trace_.push_back(std::move(c));
}

RoutineId trinv_unb_routine(int variant) {
  switch (variant) {
    case 1: return RoutineId::Trinv1Unb;
    case 2: return RoutineId::Trinv2Unb;
    case 3: return RoutineId::Trinv3Unb;
    default: return RoutineId::Trinv4Unb;
  }
}

RoutineId chol_unb_routine(int variant) {
  switch (variant) {
    case 1: return RoutineId::Chol1Unb;
    case 2: return RoutineId::Chol2Unb;
    default: return RoutineId::Chol3Unb;
  }
}

void TraceContext::trinv_unb(int variant, index_t n, double*, index_t ldl) {
  KernelCall c;
  c.routine = trinv_unb_routine(variant);
  c.sizes = {n};
  c.leads = {ldl};
  trace_.push_back(std::move(c));
}

void TraceContext::chol_unb(int variant, index_t n, double*, index_t lda) {
  KernelCall c;
  c.routine = chol_unb_routine(variant);
  c.sizes = {n};
  c.leads = {lda};
  trace_.push_back(std::move(c));
}

void TraceContext::sylv_unb(index_t m, index_t n, const double*, index_t ldl,
                            const double*, index_t ldu, double*,
                            index_t ldx) {
  KernelCall c;
  c.routine = RoutineId::SylvUnb;
  c.sizes = {m, n};
  c.leads = {ldl, ldu, ldx};
  trace_.push_back(std::move(c));
}

namespace {
index_t ceil_div(index_t a, index_t b) { return b > 0 ? (a + b - 1) / b : 0; }
}  // namespace

index_t trace_trinv_calls(index_t n, index_t blocksize) {
  // Per block iteration: at most a trmm, a trsm, a gemm and the unblocked
  // diagonal call (the gemm-free variants simply stay under the bound).
  return 4 * ceil_div(n, blocksize);
}

index_t trace_sylv_calls(index_t m, index_t n, index_t blocksize) {
  // Per X block: the unblocked solve plus a bounded number of prefix
  // updates (pull schedules fold the whole prefix into one gemm each).
  return 4 * ceil_div(m, blocksize) * ceil_div(n, blocksize) +
         ceil_div(m, blocksize) + ceil_div(n, blocksize);
}

index_t trace_chol_calls(index_t n, index_t blocksize) {
  // Per block iteration: at most trsm, syrk, gemm and the unblocked call.
  return 4 * ceil_div(n, blocksize);
}

std::unique_ptr<double[]> operand_buffer(index_t elements) {
  return std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(std::max<index_t>(1, elements)));
}

void record_trinv(KernelContext& ctx, int variant, index_t n,
                  index_t blocksize) {
  const auto l = operand_buffer(n * n);
  trinv_blocked(ctx, variant, n, l.get(), std::max<index_t>(1, n),
                blocksize);
}

void record_sylv(KernelContext& ctx, int variant, index_t m, index_t n,
                 index_t blocksize) {
  // One allocation holding L (m x m), U (n x n) and X (m x n).
  const auto buffer = operand_buffer(m * m + n * n + m * n);
  double* const l = buffer.get();
  double* const u = l + m * m;
  double* const x = u + n * n;
  const index_t ldm = std::max<index_t>(1, m);
  sylv_blocked(ctx, variant, m, n, l, ldm, u, std::max<index_t>(1, n), x,
               ldm, blocksize);
}

void record_chol(KernelContext& ctx, int variant, index_t n,
                 index_t blocksize) {
  const auto a = operand_buffer(n * n);
  chol_blocked(ctx, variant, n, a.get(), std::max<index_t>(1, n), blocksize);
}

CallTrace trace_trinv(int variant, index_t n, index_t blocksize) {
  TraceContext ctx;
  ctx.reserve(trace_trinv_calls(n, blocksize));
  record_trinv(ctx, variant, n, blocksize);
  return ctx.take();
}

CallTrace trace_sylv(int variant, index_t m, index_t n, index_t blocksize) {
  TraceContext ctx;
  ctx.reserve(trace_sylv_calls(m, n, blocksize));
  record_sylv(ctx, variant, m, n, blocksize);
  return ctx.take();
}

CallTrace trace_chol(int variant, index_t n, index_t blocksize) {
  TraceContext ctx;
  ctx.reserve(trace_chol_calls(n, blocksize));
  record_chol(ctx, variant, n, blocksize);
  return ctx.take();
}

double trace_flops(const CallTrace& trace) {
  double total = 0.0;
  for (const KernelCall& c : trace) total += call_flops(c);
  return total;
}

}  // namespace dlap
