#include "layers.hpp"

#include <stdexcept>

#include "modeler/strategies.hpp"
#include "ops/registry.hpp"
#include "predict/compiled_trace.hpp"
#include "sampler/sample_store.hpp"

namespace perfbench {

RepositoryBackedPredictor reference_predictor(Engine& engine) {
  const EngineConfig& cfg = engine.config();
  return RepositoryBackedPredictor(engine.service(), cfg.system.backend,
                                   cfg.system.locality, cfg.prediction);
}

void probe_predict_layers(Engine& engine,
                          const std::vector<OperationSpec>& points,
                          Tracer& tracer, Report& report) {
  const ModelResolver resolve = reference_predictor(engine).resolver();
  double source_calls = 0.0;
  double unique_calls = 0.0;
  double eval_ns = 0.0;
  double sink = 0.0;
  for (const OperationSpec& spec : points) {
    CallTrace trace;
    {
      Scope span(&tracer, "predict.trace");
      trace = spec.trace();
    }
    CompiledTrace compiled;
    {
      Scope span(&tracer, "predict.compile");
      compiled = CompiledTrace::compile(trace, engine.config().prediction);
    }
    source_calls += static_cast<double>(compiled.source_calls());
    unique_calls += static_cast<double>(compiled.unique_calls());

    std::vector<const RoutineModel*> by_key;
    for (const CompiledKey& key : compiled.keys()) {
      by_key.push_back(resolve(routine_name(key.routine), key.flags));
    }
    Prediction compiled_prediction;
    const auto t0 = Clock::now();
    {
      Scope span(&tracer, "predict.eval");
      compiled_prediction = compiled.predict(by_key);
    }
    eval_ns += 1e3 * us_between(t0, Clock::now());

    for (const CompiledCall& call : compiled.entries()) {
      const RoutineModel* model = by_key[static_cast<std::size_t>(call.key)];
      if (model == nullptr) continue;
      Scope span(&tracer, "modeler.evaluate");
      sink += model->model.evaluate(call.point).median;
    }

    report.attempt();
    Result<Prediction> answer = Status::error(StatusCode::InternalError, "");
    {
      Scope span(&tracer, "api.predict");
      answer = engine.predict(PredictQuery::of(spec));
    }
    if (!answer.ok() || !same_bits(*answer, compiled_prediction)) {
      report.fail("compiled prediction of " + spec.to_string() +
                  " differs from the engine's answer");
    }
  }
  if (!(sink > 0.0)) report.fail("model evaluations returned no cost");
  report.add("predict.trace_us", median_span_ns(tracer, "predict.trace") / 1e3,
             "us");
  report.add("predict.compile_us",
             median_span_ns(tracer, "predict.compile") / 1e3, "us");
  report.add("predict.unique_call_ratio",
             source_calls > 0 ? unique_calls / source_calls : 0.0, "ratio");
  report.add("predict.eval_ns_per_unique_call",
             unique_calls > 0 ? eval_ns / unique_calls : 0.0, "ns");
  report.add("modeler.evaluate_ns", median_span_ns(tracer, "modeler.evaluate"),
             "ns");
  report.note("predict probe: " + std::to_string(points.size()) +
              " sweep points, " + std::to_string(static_cast<long long>(
                                      unique_calls)) +
              " unique of " +
              std::to_string(static_cast<long long>(source_calls)) +
              " calls");
}

void probe_fit(Engine& engine, const std::vector<OperationSpec>& specs,
               const fs::path& sample_dir, Tracer& tracer, Report& report) {
  const std::vector<ModelJob> jobs = plan_jobs_for_specs(
      specs, engine.config().system, engine.config().planning);
  SampleStore store(sample_dir);
  double regions = 0.0;
  for (const ModelJob& job : jobs) {
    const ModelKey key = ModelService::key_for(job);
    const std::shared_ptr<const RoutineModel> stored =
        engine.service().find(key);
    report.attempt();
    if (stored == nullptr) {
      report.fail("no stored model for " + key.to_string());
      continue;
    }
    regions += static_cast<double>(stored->model.pieces().size());

    const std::string name = key.to_string();
    // The key's first probe replays its journal: done here, outside the
    // timed fit.
    SampleStats unused;
    (void)store.probe(name, {}, &unused, false);
    const MeasureFn replay = [&store,
                              &name](const std::vector<index_t>& point) {
      SampleStats stats;
      if (store.probe(name, point, &stats) == SampleStore::Origin::Miss) {
        throw std::runtime_error("point missing from the journal");
      }
      return stats;
    };
    try {
      GenerationResult refit;
      {
        Scope span(&tracer, "modeler.fit");
        refit = generate_adaptive_refinement(
            stored->model.domain(), replay, engine.config().service.refinement);
      }
      if (refit.model.pieces().size() != stored->model.pieces().size()) {
        report.fail("replayed fit of " + key.to_string() +
                    " found a different number of regions");
      }
    } catch (const std::exception& e) {
      report.fail("replayed fit of " + key.to_string() + ": " + e.what());
    }
  }
  report.add("modeler.fit_ms", median_span_ns(tracer, "modeler.fit") / 1e6,
             "ms");
  report.add("modeler.regions", regions, "count");
}

void report_generation_layers(const GenerationOutcome& gen, Report& report) {
  double batches = 0.0;
  double joined = 0.0;
  std::vector<double> wall_ms;
  for (const GenerationStats& stats : gen.key_stats) {
    batches += static_cast<double>(stats.batches);
    joined += static_cast<double>(stats.points_joined);
    wall_ms.push_back(stats.wall_ms);
  }
  report.add("service.batches", batches, "count");
  report.add("service.points_joined", joined, "count");
  report.add("service.key_wall_ms", median(wall_ms), "ms");
  report.add("sampler.points_measured",
             static_cast<double>(gen.cold.points_measured()), "count");
  report.add("sampler.points_from_disk",
             static_cast<double>(gen.regen.points_from_disk()), "count");
  report.add("storage.bytes_written", static_cast<double>(gen.bytes_written),
             "bytes");
}

void report_absent(const std::vector<const char*>& names, const char* unit,
                   const std::string& why, Report& report) {
  std::string list;
  for (const char* name : names) {
    report.add(name, 0.0, unit);
    list += (list.empty() ? "" : ", ") + std::string(name);
  }
  report.note("absent (reported as 0): " + list + " -- " + why);
}

void report_trace_cache(const LruStats& before, const LruStats& after,
                        Report& report) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto lookups = hits + static_cast<double>(after.misses - before.misses);
  report.add("api.trace_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
             "ratio");
  report.add("api.trace_cache_evictions",
             static_cast<double>(after.evictions - before.evictions), "count");
}

void report_trace_overhead(double untraced_p50, double traced_p50,
                           Report& report) {
  report.add("trace.overhead_pct",
             untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) /
                                    untraced_p50
                              : 0.0,
             "%");
}

}  // namespace perfbench
