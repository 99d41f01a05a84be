#pragma once
// Call-trace extraction (paper Section IV): "for each algorithm execution,
// we consider the list of subroutine invocations". TraceContext implements
// the KernelContext interface by recording a KernelCall per invocation
// instead of computing; running a blocked algorithm against it yields the
// exact invocation sequence the paper prints for trinv variant 1.

#include <memory>
#include <vector>

#include "algorithms/kernel_context.hpp"
#include "sampler/calls.hpp"

namespace dlap {

using CallTrace = std::vector<KernelCall>;

class TraceContext final : public KernelContext {
 public:
  [[nodiscard]] const CallTrace& trace() const noexcept { return trace_; }

  /// Moves the recorded trace out and resets the context to a clean empty
  /// state, so it is immediately reusable for another recording (a
  /// moved-from vector is only valid-but-unspecified otherwise).
  [[nodiscard]] CallTrace take() {
    CallTrace out = std::move(trace_);
    trace_.clear();
    return out;
  }

  void clear() { trace_.clear(); }

  /// Pre-allocates storage for the expected number of calls (the trace
  /// generators pass their family's call-count estimate, killing
  /// reallocation churn during recording).
  void reserve(index_t calls) {
    if (calls > 0) trace_.reserve(static_cast<std::size_t>(calls));
  }

  void gemm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
            double alpha, const double* a, index_t lda, const double* b,
            index_t ldb, double beta, double* c, index_t ldc) override;
  void trsm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override;
  void trmm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override;
  void syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
            const double* a, index_t lda, double beta, double* c,
            index_t ldc) override;
  void trinv_unb(int variant, index_t n, double* l, index_t ldl) override;
  void chol_unb(int variant, index_t n, double* a, index_t lda) override;
  void sylv_unb(index_t m, index_t n, const double* l, index_t ldl,
                const double* u, index_t ldu, double* x,
                index_t ldx) override;

 private:
  CallTrace trace_;
};

/// Routine ids of the unblocked kernels, by variant (any other variant
/// maps to the last one).
[[nodiscard]] RoutineId trinv_unb_routine(int variant);
[[nodiscard]] RoutineId chol_unb_routine(int variant);

/// Operand storage for a recording run: `elements` doubles (at least
/// one), uninitialized. Recording contexts never read or write operand
/// memory; the algorithms only form sub-block pointers, which must point
/// into a real allocation.
[[nodiscard]] std::unique_ptr<double[]> operand_buffer(index_t elements);

/// Run the built-in blocked algorithms against a recording context
/// (TraceContext, TraceCompiler) on operand_buffer storage, with the
/// operand layouts documented at trace_trinv / trace_sylv / trace_chol.
void record_trinv(KernelContext& ctx, int variant, index_t n,
                  index_t blocksize);
void record_sylv(KernelContext& ctx, int variant, index_t m, index_t n,
                 index_t blocksize);
void record_chol(KernelContext& ctx, int variant, index_t n,
                 index_t blocksize);

/// Call-count estimates for the built-in blocked algorithms (slight upper
/// bounds). The trace generators reserve() their storage from these, and
/// callers sizing downstream structures (e.g. the trace compiler) may use
/// them as capacity hints.
[[nodiscard]] index_t trace_trinv_calls(index_t n, index_t blocksize);
[[nodiscard]] index_t trace_sylv_calls(index_t m, index_t n,
                                       index_t blocksize);
[[nodiscard]] index_t trace_chol_calls(index_t n, index_t blocksize);

/// Trace of trinv variant 1-4 on an n x n matrix (ldL = n) with the given
/// block size; no numerical work is performed.
[[nodiscard]] CallTrace trace_trinv(int variant, index_t n,
                                    index_t blocksize);

/// Trace of sylv variant 1-16 on L (m x m), U (n x n), X (m x n),
/// ldL = ldX = m, ldU = n.
[[nodiscard]] CallTrace trace_sylv(int variant, index_t m, index_t n,
                                   index_t blocksize);

/// Trace of chol variant 1-3 on an n x n matrix (ldA = n) with the given
/// block size; no numerical work is performed.
[[nodiscard]] CallTrace trace_chol(int variant, index_t n,
                                   index_t blocksize);

/// Total flops across a trace (sum of call_flops).
[[nodiscard]] double trace_flops(const CallTrace& trace);

}  // namespace dlap
