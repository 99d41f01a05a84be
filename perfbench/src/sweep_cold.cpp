// sweep_cold: the in-process Engine with no server. Threads in a closed
// loop walk a seeded list of block-size tunes (trinv, chol) and 16-way
// sylv ranks. Chosen because the distinct sweep points (about 16k) exceed
// the trace cache (4096 entries) several times over, so trace
// generation, CompiledTrace::compile, interning, resolution and LRU
// insert/evict do the work. It bypasses the server entirely, and the
// sampler (models come from the synthetic cost surface).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "generation.hpp"
#include "layers.hpp"
#include "storage/pack.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kThreads = 4;          // closed-loop clients (<= nproc)
constexpr std::size_t kList = 40000;  // seeded query list length
constexpr std::size_t kCheckEvery = 32;  // answers kept for checking
constexpr std::size_t kMaxChecks = 400;   // reference checks per phase
constexpr int kSegments = 10;          // timed segments per run
constexpr int kRoundsPerSegment = 2;   // generation rounds per segment
constexpr int kSetupsPerSegment = 5;

struct Query {
  std::optional<TuneQuery> tune;
  std::optional<RankQuery> rank;
};

/// The fixed distinct query set; the seed only decides the list drawn
/// from it, so every seed does the same kind and amount of work.
std::vector<Query> distinct_queries() {
  std::vector<Query> out;
  for (const char* op : {"trinv", "chol"}) {
    const int variants = std::string(op) == "trinv" ? 4 : 3;
    for (int v = 1; v <= variants; ++v) {
      for (index_t n = 64; n <= 256; n += 8) {
        TuneQuery q;
        q.spec = OperationSpec::of(op, v, 0, n, 64);
        q.lo = 16;
        q.hi = 128;
        q.step = 8;
        out.push_back({q, std::nullopt});
      }
    }
  }
  for (index_t m = 48; m <= 256; m += 16) {
    for (index_t n = 48; n <= 256; n += 16) {
      for (index_t b : {16, 24, 32, 48}) {
        out.push_back({std::nullopt, RankQuery::sylv_variants(m, n, b)});
      }
    }
  }
  return out;
}

/// Every sweep point a query evaluates.
std::vector<OperationSpec> sweep_points(const Query& q) {
  if (q.rank) return q.rank->candidates;
  std::vector<OperationSpec> points;
  for (index_t b = q.tune->lo; b <= q.tune->hi; b += q.tune->step) {
    OperationSpec spec = q.tune->spec;
    spec.blocksize = b;
    points.push_back(spec);
  }
  return points;
}

struct Answer {
  bool set = false;
  std::vector<Prediction> predictions;
};

/// Where the closed loop is in the list, across segments, and the
/// answers kept for the reference check (list positions 0, kCheckEvery,
/// ... of the first pass).
struct Cursor {
  std::atomic<std::size_t> next{0};
  std::vector<Answer> checked;
};

struct LoopResult {
  OpLog log;
  double elapsed_s = 0.0;
};

/// Closed loop over the list for `seconds`; each thread takes the next
/// list position from the cursor.
LoopResult run_loop(Engine& engine, const std::vector<Query>& queries,
                    const std::vector<std::uint32_t>& list, double seconds,
                    std::vector<Tracer>* tracers, Cursor& cursor) {
  LoopResult out;
  cursor.checked.resize(list.size() / kCheckEvery + 1);
  std::mutex merge;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Tracer* tracer =
          tracers ? &(*tracers)[static_cast<std::size_t>(t)] : nullptr;
      OpLog log;
      while (Clock::now() < deadline) {
        const std::size_t i = cursor.next.fetch_add(1);
        const std::size_t pos = i % list.size();
        const Query& q = queries[list[pos]];
        const auto t0 = Clock::now();
        bool ok = false;
        std::vector<Prediction> predictions;
        if (q.tune) {
          Scope span(tracer, "api.tune", i);
          Result<TuneResult> r = engine.tune(*q.tune);
          ok = r.ok();
          if (ok) predictions = std::move(r->predictions);
        } else {
          Scope span(tracer, "api.rank", i);
          Result<Ranking> r = engine.rank(*q.rank);
          ok = r.ok();
          if (ok) predictions = std::move(r->predictions);
        }
        log.record(start, t0, Clock::now());
        ++log.attempted;
        if (!ok) ++log.failed;
        if (ok && i < list.size() && pos % kCheckEvery == 0) {
          Answer& slot = cursor.checked[pos / kCheckEvery];
          slot.set = true;
          slot.predictions = std::move(predictions);
        }
      }
      std::lock_guard<std::mutex> lock(merge);
      out.log.merge(log);
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.elapsed_s = seconds_since(start);
  return out;
}

/// Every kept answer against Predictor::predict over the same models.
void check_answers(Engine& engine, const std::vector<Query>& queries,
                   const std::vector<std::uint32_t>& list,
                   const std::vector<Answer>& answers, Fault fault,
                   Report& report) {
  const RepositoryBackedPredictor reference = reference_predictor(engine);
  bool perturb = fault == Fault::Prediction;
  std::size_t kept = 0;
  for (const Answer& answer : answers) kept += answer.set ? 1 : 0;
  // At most kMaxChecks, spread evenly over the kept answers.
  const std::size_t stride = (kept + kMaxChecks - 1) / kMaxChecks;
  std::size_t checked = 0;
  std::size_t seen = 0;
  for (std::size_t k = 0; k < answers.size(); ++k) {
    const Answer& answer = answers[k];
    if (!answer.set || seen++ % stride != 0) continue;
    ++checked;
    const Query& q = queries[list[k * kCheckEvery]];
    const std::vector<OperationSpec> points = sweep_points(q);
    report.attempt();
    bool same = points.size() == answer.predictions.size();
    for (std::size_t p = 0; same && p < points.size(); ++p) {
      Prediction expected = reference.predict(points[p].trace());
      if (perturb) {
        expected.ticks.median =
            std::nextafter(expected.ticks.median, INFINITY);
        perturb = false;
      }
      same = same_bits(expected, answer.predictions[p]);
    }
    if (!same) {
      report.fail("sweep answer at list position " +
                  std::to_string(k * kCheckEvery) +
                  " differs from Predictor::predict");
    }
  }
  report.note("sweep_cold: " + std::to_string(checked) +
              " answers checked against Predictor::predict");
}

}  // namespace

void run_sweep_cold(const Options& opt, Report& report) {
  const std::vector<Query> queries = distinct_queries();
  Rng rng(opt.seed);
  std::vector<std::uint32_t> list(kList);
  for (std::uint32_t& q : list) {
    q = static_cast<std::uint32_t>(rng.below(queries.size()));
  }
  std::size_t distinct_points = 0;
  for (const Query& q : queries) distinct_points += sweep_points(q).size();
  report.note("sweep_cold: " + std::to_string(queries.size()) +
              " distinct queries over " + std::to_string(distinct_points) +
              " distinct sweep points; " + std::to_string(kThreads) +
              " closed-loop threads");

  Tracer tracer;
  GenerationConfig gen_cfg;
  gen_cfg.specs = synthetic_specs();
  gen_cfg.measure = synthetic_measure(opt.seed);
  GenerationOutcome gen;
  generation_round(gen_cfg, opt.work_dir, nullptr, opt.fault, false, report,
                   gen);
  if (opt.trace) {
    Engine probe_engine(engine_config(gen.repo_dir, 1, nullptr));
    probe_fit(probe_engine, gen_cfg.specs, gen.repo_dir / "samples", tracer,
              report);
  }
  // The swept models: the first round's repository, packed.
  (void)dlap::storage::compact_repository(gen.repo_dir);
  const fs::path swept = opt.work_dir / "swept";
  fs::copy(gen.repo_dir, swept, fs::copy_options::recursive);

  EndToEnd e2e;
  std::vector<double> open_ms, first_ms;
  // Set-up: open the container, answer one query of each kind.
  const std::size_t warm[3] = {0, 100, queries.size() - 1};
  const auto setup = [&](bool record) {
    const auto t0 = Clock::now();
    EngineConfig cfg = engine_config(swept, 1, nullptr);
    cfg.generate_missing = false;
    auto engine = std::make_unique<Engine>(cfg);
    const double open = us_between(t0, Clock::now()) / 1e3;
    double first = 0.0;
    for (std::size_t w : warm) {
      const Query& q = queries[w];
      report.attempt();
      const bool ok = q.tune ? engine->tune(*q.tune).ok()
                             : engine->rank(*q.rank).ok();
      if (!ok) report.fail("sweep_cold set-up query failed");
      if (w == warm[0]) first = us_between(t0, Clock::now()) / 1e3;
    }
    if (record) {
      e2e.setup_s.push_back(seconds_since(t0));
      open_ms.push_back(open);
      first_ms.push_back(first);
    }
    return engine;
  };
  const std::unique_ptr<Engine> engine = setup(false);
  engine->clear_trace_cache();

  if (!opt.trace) {
    Cursor cursor;
    for (int seg = 0; seg < kSegments; ++seg) {
      for (int r = 0; r < kRoundsPerSegment; ++r) {
        generation_round(gen_cfg, opt.work_dir, nullptr, opt.fault, true,
                         report, gen);
      }
      for (int s = 0; s < kSetupsPerSegment; ++s) (void)setup(true);
      e2e.begin_segment();
      const LoopResult loop = run_loop(
          *engine, queries, list, opt.seconds / kSegments, nullptr, cursor);
      report.attempt(loop.log.attempted);
      if (loop.log.failed > 0) {
        report.fail("sweep queries failed", loop.log.failed);
      }
      e2e.add_segment(loop.log, loop.elapsed_s);
    }
    const LruStats cache = engine->trace_cache_stats();
    check_answers(*engine, queries, list, cursor.checked, opt.fault, report);
    report.note("trace cache over the timed segments: " +
                std::to_string(cache.hits) + " hits, " +
                std::to_string(cache.misses) + " misses, " +
                std::to_string(cache.evictions) + " evictions");
    e2e.generate_s = gen.generate_s;
    e2e.regenerate_s = gen.regenerate_s;
    report_end_to_end(e2e, report);
    return;
  }

  // Traced run: an untraced half, then the same list traced, each from an
  // empty trace cache.
  for (int s = 0; s < kSetupsPerSegment; ++s) (void)setup(true);
  const auto run_phase = [&](std::vector<Tracer>* tracers) {
    engine->clear_trace_cache();
    const LruStats before = engine->trace_cache_stats();
    Cursor cursor;
    LoopResult loop =
        run_loop(*engine, queries, list, opt.seconds / 2, tracers, cursor);
    report.attempt(loop.log.attempted);
    if (loop.log.failed > 0) {
      report.fail("sweep queries failed", loop.log.failed);
    }
    if (tracers != nullptr) {
      report_trace_cache(before, engine->trace_cache_stats(), report);
    }
    check_answers(*engine, queries, list, cursor.checked, opt.fault, report);
    return loop;
  };
  const LoopResult plain = run_phase(nullptr);
  std::vector<Tracer> tracers(kThreads);
  const LoopResult traced = run_phase(&tracers);
  for (const Tracer& t : tracers) tracer.append(t);
  report_trace_overhead(percentile(plain.log.latency_us, 0.5),
                        percentile(traced.log.latency_us, 0.5), report);
  report.add("api.tune_us", median_span_ns(tracer, "api.tune") / 1e3, "us");
  report.add("api.rank_us", median_span_ns(tracer, "api.rank") / 1e3, "us");

  // Layer probes on a seeded sample of the sweep points.
  std::vector<OperationSpec> points;
  for (std::size_t i = 0; i < 64; ++i) {
    for (const OperationSpec& p : sweep_points(queries[list[i]])) {
      points.push_back(p);
    }
  }
  Tracer probe;
  probe_predict_layers(*engine, points, probe, report);
  report.add("api.predict_us", median_span_ns(probe, "api.predict") / 1e3,
             "us");
  tracer.append(probe);
  report.add("storage.open_ms", median(open_ms), "ms");
  report.add("storage.first_predict_ms", median(first_ms), "ms");
  report_generation_layers(gen, report);
  report_absent({"server.parse_ns", "server.json_parse_ns", "server.bind_ns",
                 "server.render_ns", "server.serialize_ns"},
                "ns", "sweep_cold runs no server", report);
  report_absent({"server.transport_us"}, "us", "sweep_cold runs no server",
                report);
  report_absent({"server.queue_peak", "server.shed"}, "count",
                "sweep_cold runs no server", report);
  report_absent({"sampler.measure_us", "sampler.overhead_us"}, "us",
                "models come from the synthetic cost surface", report);
  report_absent({"blas.gflops"}, "GFLOP/s",
                "models come from the synthetic cost surface", report);
  write_spans(tracer, opt.trace_dir / "sweep_cold.csv");
}

}  // namespace perfbench
