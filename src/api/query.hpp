#pragma once
// Typed queries: callers describe *what they want decided* and the engine
// derives the modeling work. Three query shapes cover the paper's three
// decision services (Section IV):
//   PredictQuery -- how long will this operation (or raw call trace) take?
//   RankQuery    -- which of these candidate operations is fastest?
//                   (ranking variants, IV-A1 / IV-B)
//   TuneQuery    -- which value of a swept parameter is best?
//                   (block-size optimization, IV-A2)
// Each query may name the "system" (backend + memory locality) it asks
// about; unset, the engine's configured default applies.

#include <optional>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "predict/predictor.hpp"
#include "predict/trace.hpp"
#include "sampler/locality.hpp"

namespace dlap {

/// The paper's "fixed implementation and memory locality situation": which
/// backend's models answer the query, generated under which locality.
struct SystemSpec {
  std::string backend = "blocked";
  Locality locality = Locality::InCache;

  [[nodiscard]] bool operator==(const SystemSpec&) const = default;
  [[nodiscard]] std::string to_string() const;
};

/// A blocked operation the engine knows how to trace, named by its family
/// in the OperationRegistry (src/ops/registry.hpp). Built-in families:
/// triangular inversion (trinv, variants 1-4), triangular Sylvester solve
/// (sylv, schedules 1-16) and Cholesky factorization (chol, variants
/// 1-3); registered families extend this set without touching the api
/// layer.
struct OperationSpec {
  /// Family name in the OperationRegistry. A default-constructed spec
  /// names no family and fails validate() with ParseError.
  std::string op;
  int variant = 1;           ///< algorithmic variant, 1..variant_count
  index_t m = 0;  ///< rows (two-axis families; one-axis ones use n alone)
  index_t n = 0;
  index_t blocksize = 64;

  /// Spec for any registered family. Single-size families ignore `m`
  /// (pass 0). Whether `op` names a registered family is reported by
  /// validate(), not here.
  [[nodiscard]] static OperationSpec of(std::string op, int variant,
                                        index_t m, index_t n,
                                        index_t blocksize);

  // Sugar over of() for the built-in families (src/ops/families.cpp).
  [[nodiscard]] static OperationSpec trinv(int variant, index_t n,
                                           index_t blocksize);
  [[nodiscard]] static OperationSpec sylv(int variant, index_t m, index_t n,
                                          index_t blocksize);
  [[nodiscard]] static OperationSpec chol(int variant, index_t n,
                                          index_t blocksize);

  /// Ok when `op` names a registered family (ParseError otherwise) and
  /// variant/sizes/blocksize form a traceable operation (InvalidQuery
  /// otherwise).
  [[nodiscard]] Status validate() const;

  /// Issues the operation's exact invocation sequence into `ctx` through
  /// its family's recorder (requires validate().ok(); throws
  /// dlap::lookup_error on unregistered families).
  void record(KernelContext& ctx) const;

  /// The recorded invocation sequence as a CallTrace (record() into a
  /// TraceContext).
  [[nodiscard]] CallTrace trace() const;

  /// Nominal flop count of the operation (the paper's efficiency formulas
  /// use this, not the trace sum; requires validate().ok()).
  [[nodiscard]] double nominal_flops() const;

  [[nodiscard]] std::string to_string() const;
};

/// One prediction: either an operation spec (the engine traces it) or a
/// raw CallTrace supplied by the caller.
struct PredictQuery {
  std::optional<OperationSpec> spec;
  CallTrace trace;  ///< used when `spec` is empty
  std::optional<SystemSpec> system;

  [[nodiscard]] static PredictQuery of(OperationSpec spec);
  [[nodiscard]] static PredictQuery of(CallTrace trace);
};

/// Rank a set of candidate operations by predicted runtime.
struct RankQuery {
  std::vector<OperationSpec> candidates;
  std::optional<SystemSpec> system;

  /// Every variant of the prototype's family (1..variant_count, registry
  /// lookup) at the prototype's sizes. When the prototype names an
  /// unregistered family the query carries the prototype alone, and
  /// Engine::rank reports its validation status (ParseError).
  [[nodiscard]] static RankQuery all_variants(OperationSpec prototype);

  // Sugar over all_variants for the built-in families
  // (src/ops/families.cpp).
  /// All four trinv variants at (n, blocksize).
  [[nodiscard]] static RankQuery trinv_variants(index_t n, index_t blocksize);
  /// All sixteen sylv schedules at (m, n, blocksize).
  [[nodiscard]] static RankQuery sylv_variants(index_t m, index_t n,
                                               index_t blocksize);
  /// All three chol variants at (n, blocksize).
  [[nodiscard]] static RankQuery chol_variants(index_t n, index_t blocksize);
};

/// Sweep the operation's block size over {lo, lo+step, ...} <= hi and pick
/// the predicted-fastest value (the spec's own blocksize is ignored).
struct TuneQuery {
  OperationSpec spec;
  index_t lo = 16;
  index_t hi = 160;
  index_t step = 16;
  std::optional<SystemSpec> system;
};

/// Answer to a RankQuery: the full prediction per candidate plus the
/// derived ordering (fastest first, by median ticks).
struct Ranking {
  std::vector<OperationSpec> candidates;  ///< echo of the query
  std::vector<Prediction> predictions;    ///< one per candidate, in order
  std::vector<index_t> order;             ///< candidate indices, fastest first

  /// Index of the predicted-fastest candidate.
  [[nodiscard]] index_t best() const { return order.front(); }
  /// Median predicted ticks per candidate (candidate order).
  [[nodiscard]] std::vector<double> median_ticks() const;
};

/// Answer to a TuneQuery: predictions over the sweep plus the argmin.
struct TuneResult {
  std::vector<index_t> values;          ///< swept parameter values
  std::vector<Prediction> predictions;  ///< one per value, in order
  index_t best_index = 0;

  [[nodiscard]] index_t best_value() const { return values[best_index]; }
  [[nodiscard]] std::vector<double> median_ticks() const;
};

}  // namespace dlap
