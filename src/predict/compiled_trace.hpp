#pragma once
// CompiledTrace: the dedicated representation of a call trace for the
// predict hot path.
//
// A blocked algorithm's trace is highly redundant: sylv on an (m, n)
// problem issues O((m/b)*(n/b)) calls but only O(m/b + n/b) distinct
// (routine, flags, sizes) tuples, and every unblocked diagonal call of
// trinv/chol repeats the same full-block size. Compiling a CallTrace
// dedupes it into
//   - keys:    the distinct (routine, flags) resolver keys (what a model
//              is looked up by),
//   - entries: the unique (key, size point) calls, each carrying its
//              multiplicity and precomputed flop count,
//   - order:   per source call, the entry it deduped into (or "skipped"),
// so prediction evaluates each model at each unique point ONCE (batched
// per key through PiecewiseModel::evaluate_many) and then accumulates the
// cached estimates over the original call order.
//
// A TraceCompiler builds that form while the blocked algorithm runs: it
// is a KernelContext that dedupes each call as it is issued, keyed by a
// fixed-width (routine, flags, sizes) value in a flat hash table, so the
// engine never materializes a CallTrace for a sweep point. A repeated
// call costs a table probe and an order-vector append; only a unique
// entry allocates. CompiledTrace::compile replays a recorded CallTrace
// through the same compiler.
//
// Accumulating in source order -- rather than folding each entry's
// contribution as multiplicity * estimate (and multiplicity-scaled
// variance for the stddev) -- costs a few additions per call but keeps
// the result BIT-identical to Predictor::predict for arbitrary model
// values: floating-point addition is not associative, so any regrouping
// would drift in the last ulps. The expensive work (resolver lookups,
// region search, polynomial evaluation) is per unique entry either way.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algorithms/kernel_context.hpp"
#include "predict/predictor.hpp"
#include "predict/trace.hpp"

namespace dlap {

/// One distinct (routine, flags) pair of a compiled trace: the unit of
/// model resolution. Backend/locality are properties of the query, not
/// the trace, so a compiled trace is reusable across systems.
struct CompiledKey {
  RoutineId routine = RoutineId::Gemm;
  std::string flags;  ///< flag values joined (KernelCall::flag_key)
};

/// One unique (key, size point) call: the unit of model evaluation.
struct CompiledCall {
  int key = 0;                  ///< index into CompiledTrace::keys()
  std::vector<index_t> sizes;   ///< size arguments in signature order
  std::vector<double> point;    ///< sizes as doubles (evaluation input)
  double flops = 0.0;           ///< flops of ONE occurrence
  index_t multiplicity = 0;     ///< occurrences in the source trace
  bool degenerate = false;      ///< any zero size (present only when
                                ///< compiled with skip_empty_calls off)
};

class CompiledTrace {
 public:
  CompiledTrace() = default;

  /// Compiles `trace` by replaying it through a TraceCompiler. With
  /// options.skip_empty_calls (the default), degenerate zero-size calls
  /// are counted and dropped -- they never reach a model, exactly as in
  /// Predictor::predict. options.strict is irrelevant here (predict() is
  /// table-driven and never throws on missing models, like
  /// predict_with_table). Throws dlap::invalid_argument_error on a call
  /// with more flags or sizes than any routine signature has.
  [[nodiscard]] static CompiledTrace compile(const CallTrace& trace,
                                             const PredictionOptions& options =
                                                 {});

  [[nodiscard]] const std::vector<CompiledKey>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<CompiledCall>& entries() const noexcept {
    return entries_;
  }
  /// Entry indices per key (evaluation batches).
  [[nodiscard]] const std::vector<std::uint32_t>& entries_of(
      int key) const {
    return key_entries_.at(static_cast<std::size_t>(key));
  }

  /// Calls in the source trace.
  [[nodiscard]] index_t source_calls() const noexcept {
    return source_calls_;
  }
  /// Unique (key, point) entries -- the number of model evaluations a
  /// prediction performs.
  [[nodiscard]] index_t unique_calls() const noexcept {
    return static_cast<index_t>(entries_.size());
  }
  /// Degenerate calls dropped at compile time (skip_empty_calls only).
  [[nodiscard]] index_t skipped() const noexcept { return skipped_; }
  [[nodiscard]] bool skip_empty_calls() const noexcept {
    return skip_empty_;
  }

  /// Predicts against pre-resolved models: models_by_key[k] is the model
  /// for keys()[k] (nullptr = missing; such entries' occurrences count
  /// into Prediction::missing, never throw). The result is bit-identical
  /// to Predictor::predict / predict_with_table over the source trace
  /// with the same models and options.
  [[nodiscard]] Prediction predict(
      const std::vector<const RoutineModel*>& models_by_key) const;

 private:
  friend class TraceCompiler;

  std::vector<CompiledKey> keys_;
  std::vector<CompiledCall> entries_;
  std::vector<std::vector<std::uint32_t>> key_entries_;
  /// Per source call: entry index, or kSkippedCall for dropped
  /// degenerate calls.
  std::vector<std::int32_t> order_;
  index_t source_calls_ = 0;
  index_t skipped_ = 0;
  bool skip_empty_ = true;

  static constexpr std::int32_t kSkippedCall = -1;
};

/// KernelContext that compiles the calls an algorithm issues into a
/// CompiledTrace on the fly. Entries, keys and the per-call order come
/// out exactly as CompiledTrace::compile produces them from the recorded
/// trace (first appearance order), so predictions are bit-identical.
/// Operand pointers are never dereferenced.
class TraceCompiler final : public KernelContext {
 public:
  explicit TraceCompiler(const PredictionOptions& options = {});

  /// Records one call given in KernelCall form (the replay path). Throws
  /// dlap::invalid_argument_error when the call has more than kMaxFlags
  /// flags or kMaxSizes sizes.
  void add(const KernelCall& call);

  /// The compiled form of every call recorded so far, without growth
  /// slack (it is what a trace cache keeps). Leaves the compiler empty
  /// and ready for another recording.
  [[nodiscard]] CompiledTrace finish();

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

  /// Widest flag and size lists of any routine signature.
  static constexpr std::size_t kMaxFlags = 4;
  static constexpr std::size_t kMaxSizes = 3;

 private:
  /// Fixed-width identity of one call: what models see of it.
  struct CallKey {
    index_t sizes[kMaxSizes] = {};
    char flags[kMaxFlags] = {};
    RoutineId routine = RoutineId::Gemm;
    std::uint8_t nflags = 0;
    std::uint8_t nsizes = 0;

    [[nodiscard]] bool operator==(const CallKey&) const = default;
  };

  void add(RoutineId routine, std::span<const char> flags,
           std::span<const index_t> sizes);
  void add(const CallKey& key);
  [[nodiscard]] static std::size_t hash(const CallKey& key);
  [[nodiscard]] int key_index(const CallKey& key);
  void grow_table();

  CompiledTrace out_;
  std::vector<CallKey> entry_keys_;  ///< aligned with out_.entries_
  /// Open-addressing table of entry indices (-1 = empty), power-of-two
  /// sized, at most half full.
  std::vector<std::int32_t> table_;
};

}  // namespace dlap
