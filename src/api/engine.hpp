#pragma once
// dlap::Engine -- the user-facing facade of the library: a long-lived
// prediction engine answering typed queries (predict / rank / tune), the
// way Peise's dissertation frames the model repository as a service
// consulted by many decision runs.
//
// What the facade adds over wiring the pipeline by hand:
//   - typed queries: callers say *what they want decided* (an operation
//     spec, a candidate set, a swept parameter); specs are validated and
//     traced through the OperationRegistry (src/ops/registry.hpp), the
//     engine derives the modeling jobs (per-family domain planners,
//     falling back to trace-driven planning in api/plan.hpp) and
//     generates missing models on demand through its ModelService;
//   - non-throwing answers: every entry point returns Result<T>
//     (api/result.hpp) -- a failed query reports a status instead of
//     unwinding the caller;
//   - batched and async entry points: predict_many fans independent
//     queries out across the service's ThreadPool; submit returns a
//     std::future;
//   - the compiled sweep path: every query point is recorded straight
//     into a CompiledTrace (deduped calls, predict/compiled_trace.hpp)
//     with its resolver keys interned to dense ids (api/intern.hpp) and
//     its models and their prediction held in a versioned slot snapshot;
//     compiled points are cached in a sharded LRU keyed by (family,
//     variant, sizes, blocksize, system) (api/trace_cache.hpp), so a
//     repeated or overlapping sweep skips recording, interning, model
//     resolution and prediction, and a cold point evaluates each model
//     once per unique call.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/intern.hpp"
#include "api/plan.hpp"
#include "api/query.hpp"
#include "api/result.hpp"
#include "api/trace_cache.hpp"
#include "service/model_service.hpp"

namespace dlap {

struct EngineConfig {
  /// The owned ModelService (repository directory, generation workers,
  /// refinement strategy, measurement hook).
  ServiceConfig service;
  /// Default system for queries that do not name one.
  SystemSpec system;
  /// How modeling jobs are derived from query traces (consumed by the
  /// registry's domain planners and the trace-driven fallback).
  PlanningPolicy planning;
  /// Generate models a query needs but the repository lacks (or only
  /// covers too small a domain for). When false such queries fail with
  /// MissingModel / UncoveredDomain instead.
  bool generate_missing = true;
  /// Prediction accumulation options. `strict` is ignored: the engine
  /// reports missing models through Result statuses, never exceptions.
  PredictionOptions prediction;
  /// Compiled sweep points kept in the trace cache (0 disables caching;
  /// every spec query then recompiles its trace).
  index_t trace_cache_capacity = 4096;
  /// Test/bench hook: invoked once per predict-query evaluation, after
  /// model resolution and before the answer is returned. Lets throughput
  /// benches make queries latency-bound to measure dispatch overlap
  /// independently of the host's core count (the same trick
  /// ServiceConfig::measure_factory plays for generation). Production
  /// leaves it empty.
  std::function<void()> query_hook;
};

/// What Engine::prepare did for the models a spec batch needs
/// (generation observability, mirroring the trace-cache stats of the
/// prediction path): which keys were generated versus reused, and where
/// their sample points came from -- newly measured, the in-memory store,
/// or the on-disk sample repository. Attribution is best-effort when
/// other threads generate concurrently: work another caller performs on
/// a shared key while this prepare runs may appear in this report.
struct PrepareReport {
  struct Key {
    ModelKey key;
    /// True when this prepare call (re)generated the model; false when a
    /// repository/cache model already covered the needed domain.
    bool generated = false;
    /// Provenance of the model now serving this key: Generated,
    /// TextFile, or Container (loaded zero-copy from a .dlapc file).
    ModelSource source = ModelSource::Generated;
    /// Convenience: source == ModelSource::Container.
    [[nodiscard]] bool from_container() const noexcept {
      return source == ModelSource::Container;
    }
    index_t unique_samples = 0;
    index_t points_measured = 0;
    index_t points_from_memory = 0;
    index_t points_from_disk = 0;
    double wall_ms = 0.0;
  };
  std::vector<Key> keys;

  [[nodiscard]] index_t keys_generated() const noexcept;
  [[nodiscard]] index_t keys_reused() const noexcept;
  /// Keys whose serving model came out of a binary container.
  [[nodiscard]] index_t keys_from_container() const noexcept;
  [[nodiscard]] index_t points_measured() const noexcept;
  [[nodiscard]] index_t points_from_memory() const noexcept;
  [[nodiscard]] index_t points_from_disk() const noexcept;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Blocks until every outstanding submit()ted query has finished:
  /// dropping a future is legal, so the engine must not die under a
  /// still-queued task.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }
  /// The underlying pipeline, for callers that need the low-level surface.
  [[nodiscard]] ModelService& service() noexcept { return service_; }

  // ------------------------------------------------ synchronous queries

  /// Predicted runtime of one operation (or raw trace).
  [[nodiscard]] Result<Prediction> predict(const PredictQuery& query) noexcept;

  /// Candidate operations ordered by predicted runtime, with the full
  /// per-candidate predictions.
  [[nodiscard]] Result<Ranking> rank(const RankQuery& query) noexcept;

  /// Block-size sweep of one operation; picks the predicted-fastest value.
  [[nodiscard]] Result<TuneResult> tune(const TuneQuery& query) noexcept;

  /// Prediction for a single call given in the paper's textual tuple form,
  /// e.g. "dtrsm(L,L,N,N,144,112,1,A,256,B,256)". Malformed text yields
  /// ParseError / InvalidQuery statuses, never exceptions.
  [[nodiscard]] Result<SampleStats> predict_call(
      const std::string& call_text,
      std::optional<SystemSpec> system = {}) noexcept;

  // --------------------------------------------------- batched / async

  /// Evaluates independent queries concurrently across the service pool;
  /// results come back in query order. Each query fails or succeeds on
  /// its own.
  [[nodiscard]] std::vector<Result<Prediction>> predict_many(
      const std::vector<PredictQuery>& queries);

  /// Asynchronous single queries on the service pool.
  [[nodiscard]] std::future<Result<Prediction>> submit(PredictQuery query);
  [[nodiscard]] std::future<Result<Ranking>> submit(RankQuery query);
  [[nodiscard]] std::future<Result<TuneResult>> submit(TuneQuery query);

  // ----------------------------------------------------------- warm-up

  /// Generates every model the specs need (union of their traces) as one
  /// concurrent batch and warms the resolver cache AND the compiled-trace
  /// cache -- call before a query sweep so no query pays generation or
  /// compilation latency. When `report` is non-null it is filled with
  /// per-key generation accounting: what was generated vs. reused, and
  /// how many points were measured vs. warm-started from the in-memory
  /// store or the on-disk sample repository.
  [[nodiscard]] Status prepare(const std::vector<OperationSpec>& specs,
                               std::optional<SystemSpec> system = {},
                               PrepareReport* report = nullptr) noexcept;

  // ------------------------------------------------------------ reload

  /// Hot model reload, the dlapd admin path: re-attaches the service's
  /// binary container (picking up a repository.dlapc replaced on disk),
  /// drops the engine's model cache and expires every compiled-trace
  /// snapshot (version bump), then -- when `specs` is non-empty --
  /// regenerates/loads the models those specs need (Engine::prepare).
  /// Concurrent queries are never stalled: in-flight predictions finish
  /// on the model snapshots they pinned, later queries re-resolve from
  /// the reloaded repository. A query racing the reload may briefly
  /// re-publish its pinned pre-reload model into the engine cache; the
  /// version bump makes the next resolve of that key re-check coverage,
  /// and a subsequent prepare/regeneration supersedes it.
  [[nodiscard]] Status reload(const std::vector<OperationSpec>& specs = {},
                              std::optional<SystemSpec> system = {},
                              PrepareReport* report = nullptr) noexcept;

  // ----------------------------------------------------- observability

  /// Resolver keys interned so far.
  [[nodiscard]] std::size_t interned_keys() const { return interner_.size(); }

  /// Compiled-trace cache counters (hits/misses/evictions/size).
  [[nodiscard]] LruStats trace_cache_stats() const {
    return trace_cache_.stats();
  }

  /// Drops every cached compiled sweep point (model caches are
  /// unaffected). Mainly for benchmarks that measure the cold path.
  void clear_trace_cache() { trace_cache_.clear(); }

 private:
  /// Lazily produces the modeling jobs of the current query; only invoked
  /// when some model is missing. Spec-based queries plan through the
  /// OperationRegistry's per-family domain planners
  /// (plan_jobs_for_specs); raw-trace queries fall back to trace-driven
  /// planning (api/plan.hpp).
  using PlanFn = std::function<std::vector<ModelJob>()>;

  [[nodiscard]] SystemSpec effective_system(
      const std::optional<SystemSpec>& override_spec) const {
    return override_spec.value_or(config_.system);
  }

  /// A sweep point for `compiled`: its resolver keys interned under
  /// `system`. Raw-trace queries use it uncached.
  [[nodiscard]] std::shared_ptr<CompiledSweepPoint> make_point(
      CompiledTrace compiled, const SystemSpec& system);

  /// Cached compilation of a validated spec: trace-cache lookup, or
  /// record into a TraceCompiler + intern + insert on a miss.
  [[nodiscard]] std::shared_ptr<CompiledSweepPoint> compile_spec(
      const OperationSpec& spec, const SystemSpec& system);

  /// Produces one current slot snapshot per sweep point: fresh snapshots
  /// are reused as-is; stale ones trigger model resolution (engine cache
  /// -> repository -> on-demand generation), coverage verification
  /// against the points' unique calls, and a version-stamped rebuild
  /// that predicts the point once (ResolvedSlots::prediction).
  [[nodiscard]] Status resolve(
      const std::vector<const CompiledSweepPoint*>& points,
      const SystemSpec& system, const PlanFn& plan,
      std::vector<std::shared_ptr<const ResolvedSlots>>* slots) noexcept;

  /// PlanFn for a spec-based query: registry-planned jobs for `specs`.
  [[nodiscard]] PlanFn spec_plan(std::vector<OperationSpec> specs,
                                 const SystemSpec& system) const;

  /// Wraps a submitted task: counts it as pending until it finishes, so
  /// the destructor can wait for the pool to drain dropped futures.
  template <class Fn>
  [[nodiscard]] auto submit_tracked(Fn&& fn)
      -> std::future<decltype(fn())>;

  EngineConfig config_;
  KeyInterner interner_;

  // Model cache indexed by interned id; entries only ever widen (a model
  // is replaced by one covering a larger domain). Readers snapshot under
  // the shared lock and pin entries via shared_ptr, so the predict loop
  // itself runs lock-free on its local snapshot.
  mutable std::shared_mutex cache_mutex_;
  std::vector<std::shared_ptr<const RoutineModel>> cache_;

  // Monotonic model-cache version: bumped whenever an entry of cache_
  // changes, which is what invalidates ResolvedSlots snapshots
  // (invalidation-on-regeneration for the compiled sweep path).
  std::atomic<std::uint64_t> model_version_{0};

  // Compiled sweep points, shared across all queries of this engine.
  mutable CompiledTraceCache trace_cache_;

  // Outstanding submit() tasks; ~Engine waits for zero.
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  index_t pending_ = 0;

  // Declared last, so it is destroyed FIRST: the service's ThreadPool
  // drains still-queued submit() tasks during destruction, and those
  // tasks touch every member above -- which must outlive the drain.
  ModelService service_;
};

}  // namespace dlap
