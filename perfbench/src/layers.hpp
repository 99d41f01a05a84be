#pragma once
// Per-layer probes for the traced runs. Each probe calls one layer's
// public functions on the workload's own inputs, with a span around every
// call, and reports the layer's metrics; where a probe can compare its
// result against another path it does, as a counted check.

#include <vector>

#include "common.hpp"
#include "generation.hpp"
#include "service/repository_predictor.hpp"

namespace perfbench {

/// Predictor::predict over the models the engine's service holds, on the
/// engine's default system: the reference the compiled sweep path must
/// match bit for bit.
[[nodiscard]] RepositoryBackedPredictor reference_predictor(Engine& engine);

/// predict.trace_us, predict.compile_us, predict.unique_call_ratio,
/// predict.eval_ns_per_unique_call and modeler.evaluate_ns over `points`
/// (OperationSpec::trace, CompiledTrace::compile, CompiledTrace::predict,
/// PiecewiseModel::evaluate). Checks each compiled prediction against the
/// engine's answer for the same spec.
void probe_predict_layers(Engine& engine,
                          const std::vector<OperationSpec>& points,
                          Tracer& tracer, Report& report);

/// modeler.fit_ms (generate_adaptive_refinement replaying the recorded
/// journal samples of each key) and modeler.regions. Checks that every
/// replayed model has the stored model's regions.
void probe_fit(Engine& engine, const std::vector<OperationSpec>& specs,
               const fs::path& sample_dir, Tracer& tracer, Report& report);

/// service.*, sampler.points_*, storage.bytes_written from the
/// generation's own accounting.
void report_generation_layers(const GenerationOutcome& gen, Report& report);

/// Per-layer metrics a workload does not exercise: reported as 0 with a
/// note naming why.
void report_absent(const std::vector<const char*>& names, const char* unit,
                   const std::string& why, Report& report);

/// api.trace_cache_hit_ratio (hits over lookups) and
/// api.trace_cache_evictions between two Engine::trace_cache_stats().
void report_trace_cache(const LruStats& before, const LruStats& after,
                        Report& report);

/// Tracing overhead: traced minus untraced per-operation p50, in % of the
/// untraced p50.
void report_trace_overhead(double untraced_p50, double traced_p50,
                           Report& report);

}  // namespace perfbench
