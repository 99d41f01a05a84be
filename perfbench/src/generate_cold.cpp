// generate_cold: the real Sampler on the blocked backend. Each round runs
// Engine::prepare for a fixed trinv/chol/sylv spec set from an empty
// model repository and sample store, then regenerates the models in a
// fresh repository from the sample journals alone. Chosen because it is
// the only workload where sampling, BLAS, fitting and the write paths of
// the repository and journals do the work; it bypasses the server and
// serves no query traffic beyond its set-up answers.

#include <algorithm>
#include <fstream>

#include "blas/registry.hpp"
#include "generation.hpp"
#include "layers.hpp"
#include "ops/registry.hpp"
#include "predict/trace.hpp"
#include "sampler/sample_store.hpp"
#include "sampler/ticks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr index_t kWorkers = 4;  // generation workers (<= nproc)
constexpr int kMinRounds = 2;       // recorded generation rounds, at least
constexpr std::size_t kWarmupSpecs = 3;  // specs the warm-up round prepares
constexpr int kRegenerations = 8;   // per round, one regenerate_s sample
constexpr int kSetupsPerRound = 8;  // per round, one setup_s sample
constexpr std::size_t kSampledCalls = 96;  // sampler probe size

/// The fixed spec set; the seed only orders it.
std::vector<OperationSpec> spec_set(std::uint64_t seed) {
  std::vector<OperationSpec> specs;
  for (int v = 1; v <= 4; ++v) {
    specs.push_back(OperationSpec::trinv(v, 256, 32));
  }
  for (int v = 1; v <= 3; ++v) specs.push_back(OperationSpec::chol(v, 256, 32));
  for (int v : {1, 8, 16}) {
    specs.push_back(OperationSpec::sylv(v, 192, 192, 32));
  }
  Rng rng(seed);
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.below(i)]);
  }
  return specs;
}

/// The set-up and probe queries: every spec predicted, every family
/// ranked and tuned at the specs' sizes.
struct QuerySet {
  std::vector<PredictQuery> predicts;
  std::vector<RankQuery> ranks;
  std::vector<TuneQuery> tunes;
  /// Every sweep point the queries evaluate: what generation prepares.
  std::vector<OperationSpec> points;
};

QuerySet query_set(const std::vector<OperationSpec>& specs) {
  QuerySet q;
  q.points = specs;
  for (const OperationSpec& spec : specs) {
    q.predicts.push_back(PredictQuery::of(spec));
    if (spec.variant == 1) {
      q.ranks.push_back(RankQuery::all_variants(spec));
      TuneQuery tune;
      tune.spec = spec;
      tune.lo = 16;
      tune.hi = 32;
      tune.step = 8;
      q.tunes.push_back(tune);
      for (index_t b = tune.lo; b <= tune.hi; b += tune.step) {
        OperationSpec point = spec;
        point.blocksize = b;
        q.points.push_back(point);
      }
    }
  }
  return q;
}

/// Answers every query once; returns the predictions, in query order.
std::vector<Prediction> answer_all(Engine& engine, const QuerySet& q,
                                   Tracer* tracer, Report& report,
                                   std::vector<double>* first_ms,
                                   Clock::time_point t0) {
  std::vector<Prediction> predictions;
  for (const PredictQuery& query : q.predicts) {
    report.attempt();
    std::optional<Result<Prediction>> a;
    {
      Scope span(tracer, "api.predict");
      a.emplace(engine.predict(query));
    }
    if (first_ms != nullptr && &query == &q.predicts.front()) {
      first_ms->push_back(us_between(t0, Clock::now()) / 1e3);
    }
    if (!a->ok()) report.fail("predict after generation failed");
    predictions.push_back(a->ok() ? **a : Prediction{});
  }
  for (const RankQuery& query : q.ranks) {
    report.attempt();
    Scope span(tracer, "api.rank");
    if (!engine.rank(query).ok()) report.fail("rank after generation failed");
  }
  for (const TuneQuery& query : q.tunes) {
    report.attempt();
    Scope span(tracer, "api.tune");
    if (!engine.tune(query).ok()) report.fail("tune after generation failed");
  }
  return predictions;
}

/// The predictions against Predictor::predict over the same models.
void check_predictions(Engine& engine, const QuerySet& q,
                       const std::vector<Prediction>& predictions,
                       Report& report) {
  const RepositoryBackedPredictor reference = reference_predictor(engine);
  for (std::size_t i = 0; i < q.predicts.size(); ++i) {
    report.attempt();
    const Prediction expected = reference.predict(q.predicts[i].spec->trace());
    if (!same_bits(predictions[i], expected)) {
      report.fail("prediction of " + q.predicts[i].spec->to_string() +
                  " after generation differs from Predictor::predict");
    }
  }
}

/// Sampler::measure on a seeded sample of the points the cold phase
/// measured, rebuilt as kernel calls from the planned jobs.
void probe_sampler(const Engine& engine,
                   const std::vector<OperationSpec>& specs,
                   const fs::path& sample_dir, std::uint64_t seed,
                   Tracer& tracer, Report& report) {
  const std::vector<ModelJob> jobs = plan_jobs_for_specs(
      specs, engine.config().system, engine.config().planning);
  struct Item {
    const ModelJob* job;
    std::vector<index_t> point;
  };
  std::vector<Item> items;
  for (const ModelJob& job : jobs) {
    const std::string key = ModelService::key_for(job).to_string();
    std::ifstream journal(sample_dir / SampleStore::journal_filename(key));
    std::string line;
    std::getline(journal, line);  // magic
    while (std::getline(journal, line)) {
      Item item{&job, {}};
      SampleStats stats;
      if (SampleStore::parse_journal_line(line + "\n", &item.point, &stats)) {
        items.push_back(std::move(item));
      }
    }
  }
  Rng rng(seed);
  std::vector<double> overhead_us, gflops;
  const std::unique_ptr<Level3Backend> backend = make_backend("blocked");
  const double tps = ticks_per_second();
  for (std::size_t i = 0; i < kSampledCalls && !items.empty(); ++i) {
    const Item& item = items[rng.below(items.size())];
    const ModelingRequest& request = item.job->request;
    SamplerConfig cfg = request.sampler;
    Sampler sampler(*backend, cfg);
    const KernelCall call = make_call(request, item.point);
    const auto t0 = Clock::now();
    SampleStats stats;
    {
      Scope span(&tracer, "sampler.measure");
      stats = sampler.measure(call);
    }
    const double span_us = us_between(t0, Clock::now());
    const double runs = static_cast<double>(cfg.warmup_reps + cfg.reps);
    const double kernel_s = stats.median / tps;
    overhead_us.push_back(span_us - runs * kernel_s * 1e6);
    if (kernel_s > 0) gflops.push_back(trace_flops({call}) / kernel_s / 1e9);
  }
  report.add("sampler.measure_us",
             median_span_ns(tracer, "sampler.measure") / 1e3, "us");
  report.add("sampler.overhead_us", median(overhead_us), "us");
  report.add("blas.gflops", median(gflops), "GFLOP/s");
  report.note("sampler probe: " + std::to_string(overhead_us.size()) +
              " calls of " + std::to_string(items.size()) +
              " journal points; overhead = Sampler::measure span minus "
              "(warm-up + timed runs) x median kernel time");
}

}  // namespace

void run_generate_cold(const Options& opt, Report& report) {
  const std::vector<OperationSpec> specs = spec_set(opt.seed);
  const QuerySet queries = query_set(specs);

  Tracer tracer;
  GenerationConfig gen_cfg;
  gen_cfg.specs = queries.points;
  gen_cfg.workers = kWorkers;
  gen_cfg.regenerations = kRegenerations;

  EndToEnd e2e;
  std::vector<double> open_ms, first_ms;
  // Set-up: open the text repository the latest cold round wrote and
  // answer every query once. Returns its wall time.
  const auto setup = [&](const fs::path& repo) {
    const auto t0 = Clock::now();
    EngineConfig cfg = engine_config(repo, 1, nullptr);
    cfg.generate_missing = false;
    Engine engine(cfg);
    open_ms.push_back(us_between(t0, Clock::now()) / 1e3);
    const std::vector<Prediction> predictions =
        answer_all(engine, queries, nullptr, report, &first_ms, t0);
    const double seconds = seconds_since(t0);
    check_predictions(engine, queries, predictions, report);
    return seconds;
  };

  // Rounds until the time is spent: cold generation, journal-only
  // regenerations, set-ups on the fresh repository. The
  // unrecorded warm-up round prepares only the first few specs. The traced
  // run spends half its time untraced, for the tracing overhead.
  GenerationOutcome gen;
  GenerationConfig warm_cfg = gen_cfg;
  warm_cfg.specs.resize(kWarmupSpecs);
  warm_cfg.regenerations = 1;
  const auto rounds = [&](double budget_s, Tracer* trace) {
    generation_round(warm_cfg, opt.work_dir, trace, opt.fault, false, report,
                     gen);
    const auto start = Clock::now();
    for (int r = 0; r < kMinRounds || seconds_since(start) < budget_s; ++r) {
      generation_round(gen_cfg, opt.work_dir, trace, opt.fault, true, report,
                       gen);
      double setup_s = 0.0;
      for (int s = 0; s < kSetupsPerRound; ++s) setup_s += setup(gen.repo_dir);
      e2e.setup_s.push_back(setup_s / kSetupsPerRound);
    }
  };
  if (!opt.trace) {
    rounds(opt.seconds, nullptr);
    e2e.generate_s = gen.generate_s;
    e2e.regenerate_s = gen.regenerate_s;
    e2e.latencies_us.assign(gen.batch_us.begin(), gen.batch_us.end());
    e2e.operations = gen.batch_us.size();
    // Throughput: measurement batches completed per second of cold prepare.
    for (std::size_t r = 0; r < gen.generate_s.size(); ++r) {
      e2e.throughput.push_back(gen.cold_batches[r] / gen.generate_s[r]);
    }
    report_end_to_end(e2e, report);
    return;
  }

  rounds(opt.seconds / 2, nullptr);
  const double plain_generate = median(gen.generate_s);
  gen.generate_s.clear();
  rounds(opt.seconds / 2, &tracer);
  report_trace_overhead(plain_generate, median(gen.generate_s), report);

  EngineConfig cfg = engine_config(gen.repo_dir, 1, nullptr);
  cfg.generate_missing = false;
  Engine engine(cfg);
  Tracer queries_trace;
  (void)answer_all(engine, queries, nullptr, report, nullptr, Clock::now());
  const LruStats before = engine.trace_cache_stats();
  (void)answer_all(engine, queries, &queries_trace, report, nullptr,
                   Clock::now());
  const LruStats after = engine.trace_cache_stats();
  for (const char* name : {"api.predict", "api.rank", "api.tune"}) {
    report.add(std::string(name) + "_us",
               median_span_ns(queries_trace, name) / 1e3, "us");
  }
  report_trace_cache(before, after, report);
  tracer.append(queries_trace);

  Tracer probe;
  probe_predict_layers(engine, queries.points, probe, report);
  probe_fit(engine, queries.points, gen.repo_dir / "samples", probe, report);
  probe_sampler(engine, queries.points, gen.repo_dir / "samples", opt.seed,
                probe, report);
  tracer.append(probe);
  report.add("storage.open_ms", median(open_ms), "ms");
  report.add("storage.first_predict_ms", median(first_ms), "ms");
  report_generation_layers(gen, report);
  report.note("storage.open_ms / first_predict_ms: text repository (no "
              "container) on generate_cold");
  report_absent({"server.parse_ns", "server.json_parse_ns", "server.bind_ns",
                 "server.render_ns", "server.serialize_ns"},
                "ns", "generate_cold runs no server", report);
  report_absent({"server.transport_us"}, "us", "generate_cold runs no server",
                report);
  report_absent({"server.queue_peak", "server.shed"}, "count",
                "generate_cold runs no server", report);
  write_spans(tracer, opt.trace_dir / "generate_cold.csv");
}

}  // namespace perfbench
