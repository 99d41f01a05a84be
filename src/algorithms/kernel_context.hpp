#pragma once
// Execute-or-trace kernel context.
//
// The paper predicts an algorithm's performance "by analyzing its sequence
// of subroutine invocations" (Section IV). To make that analysis exact, our
// blocked algorithms are written once against this interface; an
// ExecContext dispatches into a real BLAS backend, while the predictor's
// TraceContext (predict/trace.hpp) records a KernelCall per invocation
// and its TraceCompiler (predict/compiled_trace.hpp) dedupes each
// invocation straight into a CompiledTrace, both without touching
// operand memory.

#include "blas/backend.hpp"
#include "common/types.hpp"

namespace dlap {

class KernelContext {
 public:
  virtual ~KernelContext() = default;

  /// C <- alpha op(A) op(B) + beta C.
  virtual void gemm(Trans transa, Trans transb, index_t m, index_t n,
                    index_t k, double alpha, const double* a, index_t lda,
                    const double* b, index_t ldb, double beta, double* c,
                    index_t ldc) = 0;

  /// B <- alpha op(A)^{-1} B / alpha B op(A)^{-1}.
  virtual void trsm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
                    index_t n, double alpha, const double* a, index_t lda,
                    double* b, index_t ldb) = 0;

  /// B <- alpha op(A) B / alpha B op(A).
  virtual void trmm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
                    index_t n, double alpha, const double* a, index_t lda,
                    double* b, index_t ldb) = 0;

  /// C <- alpha op(A) op(A)^T + beta C, C symmetric n x n (only the `uplo`
  /// triangle referenced/updated); op(A) is n x k.
  virtual void syrk(Uplo uplo, Trans trans, index_t n, index_t k,
                    double alpha, const double* a, index_t lda, double beta,
                    double* c, index_t ldc) = 0;

  /// In-place unblocked inversion of a lower-triangular matrix, using the
  /// scalar loop structure of blocked variant `variant` (1-4). This is the
  /// paper's "recursive call to an unblocked version of the same
  /// algorithm" (trinvi with blocksize 1).
  virtual void trinv_unb(int variant, index_t n, double* l, index_t ldl) = 0;

  /// In-place unblocked Cholesky factorization of the diagonal block
  /// (lower triangle of the symmetric positive-definite A overwritten by
  /// L), scalar loop structure of blocked variant `variant` (1-3).
  virtual void chol_unb(int variant, index_t n, double* a, index_t lda) = 0;

  /// In-place unblocked solve of L X + X U = C for a small block
  /// (X initially holds C); L is m x m lower, U is n x n upper triangular.
  virtual void sylv_unb(index_t m, index_t n, const double* l, index_t ldl,
                        const double* u, index_t ldu, double* x,
                        index_t ldx) = 0;
};

/// Context that executes kernels: level-3 calls go to the given backend,
/// unblocked kernels run the scalar implementations in this module.
class ExecContext final : public KernelContext {
 public:
  explicit ExecContext(Level3Backend& backend) : backend_(&backend) {}

  [[nodiscard]] Level3Backend& backend() const noexcept { return *backend_; }

  void gemm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
            double alpha, const double* a, index_t lda, const double* b,
            index_t ldb, double beta, double* c, index_t ldc) override {
    backend_->gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                   ldc);
  }
  void trsm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override {
    backend_->trsm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb);
  }
  void trmm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override {
    backend_->trmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb);
  }
  void syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
            const double* a, index_t lda, double beta, double* c,
            index_t ldc) override {
    backend_->syrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
  }
  void trinv_unb(int variant, index_t n, double* l, index_t ldl) override;
  void chol_unb(int variant, index_t n, double* a, index_t lda) override;
  void sylv_unb(index_t m, index_t n, const double* l, index_t ldl,
                const double* u, index_t ldu, double* x,
                index_t ldx) override;

 private:
  Level3Backend* backend_;
};

}  // namespace dlap
