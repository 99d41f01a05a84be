// serve_hot: dlapd over loopback. Keep-alive clients in a closed loop
// (dlapd's callers are tuners that block on each answer) send a seeded
// mix of /v1/predict, /v1/rank and /v1/tune over a small fixed set of
// trinv/chol/sylv specs, answered from a packed .dlapc container built
// from the synthetic cost surface. Chosen because after warm-up every
// query hits the trace cache and the model cache, so HTTP, JSON and the
// warm Engine path do the work; it bypasses trace generation and the
// sampler.

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "generation.hpp"
#include "layers.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/http.hpp"
#include "server/server.hpp"
#include "storage/pack.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dlap::server;

constexpr std::size_t kClients = 4;    // one connection each; <= nproc
constexpr std::size_t kSegments = 10;  // timed segments per run
constexpr int kRoundsPerSegment = 2;   // generation rounds per segment
constexpr int kSetupsPerSegment = 5;
constexpr std::size_t kSequence = 1 << 18;  // seeded request indices
constexpr std::size_t kReplays = 20000;     // in-process stage replays

enum class Kind { Predict, Rank, Tune };

struct Request {
  Kind kind;
  std::string target;
  std::string body;
  PredictQuery predict;
  RankQuery rank;
  TuneQuery tune;
  std::string expected;  ///< body of the warm direct Engine render
};

/// The fixed distinct request set (the seed only orders the traffic).
std::vector<Request> distinct_requests() {
  std::vector<Request> out;
  const auto predict = [&](OperationSpec spec) {
    std::string body = "{";
    body += spec_fields(spec);
    body += '}';
    out.push_back({Kind::Predict, "/v1/predict", body, PredictQuery::of(spec),
                   {}, {}, {}});
  };
  predict(OperationSpec::trinv(1, 128, 32));
  predict(OperationSpec::trinv(3, 160, 32));
  predict(OperationSpec::chol(1, 128, 32));
  predict(OperationSpec::chol(2, 160, 16));
  predict(OperationSpec::chol(3, 96, 32));
  predict(OperationSpec::sylv(1, 96, 128, 32));
  predict(OperationSpec::sylv(7, 128, 96, 16));
  predict(OperationSpec::sylv(12, 128, 128, 32));

  const auto rank = [&](RankQuery q) {
    std::string body = "{\"candidates\":[";
    for (std::size_t i = 0; i < q.candidates.size(); ++i) {
      body += i ? ",{" : "{";
      body += spec_fields(q.candidates[i]);
      body += '}';
    }
    body += "]}";
    out.push_back({Kind::Rank, "/v1/rank", body, {}, std::move(q), {}, {}});
  };
  rank(RankQuery::trinv_variants(160, 32));
  rank(RankQuery::chol_variants(128, 32));
  rank(RankQuery::sylv_variants(96, 96, 32));
  rank(RankQuery::sylv_variants(128, 96, 16));

  const auto tune = [&](OperationSpec spec) {
    TuneQuery q;
    q.spec = spec;
    q.lo = 16;
    q.hi = 64;
    q.step = 16;
    std::string body = "{";
    body += spec_fields(spec);
    body += ",\"lo\":16,\"hi\":64,\"step\":16}";
    out.push_back({Kind::Tune, "/v1/tune", body, {}, {}, std::move(q), {}});
  };
  tune(OperationSpec::trinv(2, 160, 32));
  tune(OperationSpec::trinv(4, 128, 32));
  tune(OperationSpec::chol(1, 160, 32));
  tune(OperationSpec::chol(3, 128, 32));
  return out;
}

/// Every sweep point the requests evaluate (the layer probes use them).
std::vector<OperationSpec> sweep_points(const std::vector<Request>& requests) {
  std::vector<OperationSpec> points;
  for (const Request& r : requests) {
    if (r.kind == Kind::Predict) points.push_back(*r.predict.spec);
    if (r.kind == Kind::Rank) {
      points.insert(points.end(), r.rank.candidates.begin(),
                    r.rank.candidates.end());
    }
    if (r.kind == Kind::Tune) {
      for (index_t b = r.tune.lo; b <= r.tune.hi; b += r.tune.step) {
        OperationSpec spec = r.tune.spec;
        spec.blocksize = b;
        points.push_back(spec);
      }
    }
  }
  return points;
}

/// Direct Engine answer rendered as the daemon renders it; empty when
/// the query failed.
std::string direct_render(Engine& engine, const Request& r) {
  switch (r.kind) {
    case Kind::Predict: {
      const Result<Prediction> a = engine.predict(r.predict);
      return a.ok() ? render_prediction(*a).dump() : std::string();
    }
    case Kind::Rank: {
      const Result<Ranking> a = engine.rank(r.rank);
      return a.ok() ? render_ranking(*a).dump() : std::string();
    }
    case Kind::Tune: {
      const Result<TuneResult> a = engine.tune(r.tune);
      return a.ok() ? render_tune(*a).dump() : std::string();
    }
  }
  return {};
}

struct LoopResult {
  OpLog log;
  double elapsed_s = 0.0;
};

/// One thread per client: warm its connection with every distinct
/// request, then time requests from the seeded sequence until `seconds`
/// pass, checking every response body byte for byte.
LoopResult run_clients(int port, const std::vector<Request>& requests,
                       const std::vector<std::uint16_t>& sequence,
                       std::size_t segment, double seconds,
                       std::vector<Tracer>* tracers) {
  LoopResult out;
  std::mutex merge;
  std::atomic<std::size_t> warmed{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Tracer* tracer =
          tracers ? &(*tracers)[c] : nullptr;
      HttpClient client("127.0.0.1", port);
      OpLog log;
      const auto send = [&](const Request& r, std::uint64_t id) {
        std::optional<ClientResponse> response;
        {
          Scope span(tracer, "serve.request", id);
          response = client.request("POST", r.target, r.body);
        }
        ++log.attempted;
        const bool ok = response.has_value() && response->status == 200 &&
                        response->body == r.expected;
        if (!ok) ++log.failed;
      };
      for (const Request& r : requests) send(r, 0);  // warm-up
      ++warmed;
      while (!go.load()) std::this_thread::yield();
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      // Each client and segment starts at its own slice of the sequence.
      std::size_t pos = (c + segment * kClients) *
                        (sequence.size() / (kClients * kSegments));
      while (Clock::now() < deadline) {
        const std::uint16_t q = sequence[pos++ % sequence.size()];
        const auto t0 = Clock::now();
        send(requests[q], pos);
        log.record(start, t0, Clock::now());
      }
      std::lock_guard<std::mutex> lock(merge);
      out.log.merge(log);
    });
  }
  while (warmed.load() < kClients) std::this_thread::yield();
  start = Clock::now();
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  out.elapsed_s = seconds_since(start);
  return out;
}

/// The daemon's request path, stage by stage, in this process: HTTP
/// parse, JSON parse, bind, Engine query, render, serialize. Every
/// rendered body is checked against the expected one.
void replay_stages(Engine& engine, const std::vector<Request>& requests,
                   const std::vector<std::uint16_t>& sequence, Tracer& tracer,
                   Report& report) {
  std::vector<std::string> wire;
  for (const Request& r : requests) {
    wire.push_back("POST " + r.target +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                   std::to_string(r.body.size()) + "\r\n\r\n" + r.body);
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < kReplays; ++i) {
    const std::uint16_t q = sequence[i % sequence.size()];
    const Request& r = requests[q];
    const std::int32_t root = tracer.begin("serve.replay", -1, i);
    HttpParser parser;
    {
      Scope span(&tracer, "server.parse", i, root);
      (void)parser.feed(wire[q]);
    }
    Json body;
    {
      Scope span(&tracer, "server.json_parse", i, root);
      body = Json::parse(parser.request().body);
    }
    Status bound;
    PredictQuery pq;
    RankQuery rq;
    TuneQuery tq;
    {
      Scope span(&tracer, "server.bind", i, root);
      bound = r.kind == Kind::Predict ? bind_predict(body, &pq)
              : r.kind == Kind::Rank  ? bind_rank(body, &rq)
                                      : bind_tune(body, &tq);
    }
    Json rendered;
    bool ok = bound.ok();
    if (r.kind == Kind::Predict) {
      std::optional<Result<Prediction>> a;
      {
        Scope span(&tracer, "api.predict", i, root);
        a.emplace(engine.predict(pq));
      }
      ok = ok && a->ok();
      if (ok) {
        Scope span(&tracer, "server.render", i, root);
        rendered = render_prediction(**a);
      }
    } else if (r.kind == Kind::Rank) {
      std::optional<Result<Ranking>> a;
      {
        Scope span(&tracer, "api.rank", i, root);
        a.emplace(engine.rank(rq));
      }
      ok = ok && a->ok();
      if (ok) {
        Scope span(&tracer, "server.render", i, root);
        rendered = render_ranking(**a);
      }
    } else {
      std::optional<Result<TuneResult>> a;
      {
        Scope span(&tracer, "api.tune", i, root);
        a.emplace(engine.tune(tq));
      }
      ok = ok && a->ok();
      if (ok) {
        Scope span(&tracer, "server.render", i, root);
        rendered = render_tune(**a);
      }
    }
    HttpResponse response;
    {
      Scope span(&tracer, "server.render_dump", i, root);
      response = Router::json_response(200, rendered);
    }
    std::string bytes;
    {
      Scope span(&tracer, "server.serialize", i, root);
      bytes = response.serialize();
    }
    tracer.end(root);
    if (!ok || !parser.complete() || response.body != r.expected) ++failed;
  }
  report.attempt(kReplays);
  if (failed > 0) report.fail("in-process stage replay mismatched", failed);
}

}  // namespace

void run_serve_hot(const Options& opt, Report& report) {
  std::vector<Request> requests = distinct_requests();
  Rng rng(opt.seed);
  std::vector<std::uint16_t> sequence(kSequence);
  for (std::uint16_t& q : sequence) {
    // 60% predict, 20% rank, 20% tune.
    const std::size_t roll = rng.below(10);
    q = static_cast<std::uint16_t>(roll < 6   ? rng.below(8)
                                   : roll < 8 ? 8 + rng.below(4)
                                              : 12 + rng.below(4));
  }

  Tracer tracer;
  const std::vector<OperationSpec> points = sweep_points(requests);
  GenerationConfig gen_cfg;
  gen_cfg.specs = synthetic_specs();
  gen_cfg.measure = synthetic_measure(opt.seed);
  GenerationOutcome gen;
  generation_round(gen_cfg, opt.work_dir, nullptr, Fault::None, false, report,
                   gen);
  if (opt.trace) {
    Engine probe_engine(engine_config(gen.repo_dir, 1, nullptr));
    probe_fit(probe_engine, gen_cfg.specs, gen.repo_dir / "samples", tracer,
              report);
  }
  // The served models: the first round's repository, packed.
  (void)dlap::storage::compact_repository(gen.repo_dir);
  const fs::path served = opt.work_dir / "served";
  fs::copy(gen.repo_dir, served, fs::copy_options::recursive);

  EndToEnd e2e;
  std::vector<double> open_ms, first_ms;
  // Set-up: open the container and answer every distinct request once.
  const auto setup = [&](bool record) {
    const auto t0 = Clock::now();
    EngineConfig cfg = engine_config(served, 1, nullptr);
    cfg.generate_missing = false;
    auto engine = std::make_unique<Engine>(cfg);
    const double open = us_between(t0, Clock::now()) / 1e3;
    double first = 0.0;
    for (const Request& r : requests) {
      report.attempt();
      if (direct_render(*engine, r).empty()) {
        report.fail("serve_hot set-up query failed: " + r.body);
      }
      if (&r == &requests.front()) first = us_between(t0, Clock::now()) / 1e3;
    }
    if (record) {
      e2e.setup_s.push_back(seconds_since(t0));
      open_ms.push_back(open);
      first_ms.push_back(first);
    }
    return engine;
  };

  // The serving engine; expected bodies are its warm second answers.
  const std::unique_ptr<Engine> engine = setup(false);
  for (Request& r : requests) r.expected = direct_render(*engine, r);
  if (opt.fault == Fault::Body) requests[0].expected[10] ^= 0x01;

  Server server(*engine, ServerConfig{});
  if (Status s = server.start(); !s.ok()) {
    throw std::runtime_error("dlapd did not start: " + s.to_string());
  }
  const auto account = [&](const LoopResult& loop) {
    report.attempt(loop.log.attempted);
    if (loop.log.failed > 0) {
      report.fail("dlapd responses differ from the direct Engine render",
                  loop.log.failed);
    }
  };

  if (!opt.trace) {
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      for (int r = 0; r < kRoundsPerSegment; ++r) {
        generation_round(gen_cfg, opt.work_dir, nullptr, Fault::None, true,
                         report, gen);
      }
      for (int s = 0; s < kSetupsPerSegment; ++s) (void)setup(true);
      e2e.begin_segment();
      const LoopResult loop = run_clients(server.port(), requests, sequence,
                                          seg, opt.seconds / kSegments,
                                          nullptr);
      account(loop);
      e2e.add_segment(loop.log, loop.elapsed_s);
    }
    server.stop();
    const ServerStats stats = server.stats();
    if (stats.shed_queue_full + stats.rate_limited > 0) {
      report.fail("dlapd shed requests",
                  stats.shed_queue_full + stats.rate_limited);
    }
    e2e.generate_s = gen.generate_s;
    e2e.regenerate_s = gen.regenerate_s;
    report_end_to_end(e2e, report);
    return;
  }

  // Traced run: an untraced half, then a traced half, then the in-process
  // stage replay the per-layer split comes from.
  for (int s = 0; s < kSetupsPerSegment; ++s) (void)setup(true);
  const LoopResult plain = run_clients(server.port(), requests, sequence, 0,
                                       opt.seconds / 2, nullptr);
  account(plain);
  const LruStats before = engine->trace_cache_stats();
  std::vector<Tracer> tracers(kClients);
  const LoopResult traced = run_clients(server.port(), requests, sequence, 1,
                                        opt.seconds / 2, &tracers);
  const LruStats after = engine->trace_cache_stats();
  account(traced);
  server.stop();
  const ServerStats stats = server.stats();
  for (const Tracer& t : tracers) tracer.append(t);
  const double traced_p50 = percentile(traced.log.latency_us, 0.5);
  report_trace_overhead(percentile(plain.log.latency_us, 0.5), traced_p50,
                        report);

  Tracer stages;
  replay_stages(*engine, requests, sequence, stages, report);
  const double parse = median_span_ns(stages, "server.parse");
  const double json = median_span_ns(stages, "server.json_parse");
  const double bind = median_span_ns(stages, "server.bind");
  const double render = median_span_ns(stages, "server.render") +
                        median_span_ns(stages, "server.render_dump");
  const double serialize = median_span_ns(stages, "server.serialize");
  std::vector<double> api_ns;
  for (const char* name : {"api.predict", "api.rank", "api.tune"}) {
    const std::vector<double> d = span_durations_ns(stages, name);
    api_ns.insert(api_ns.end(), d.begin(), d.end());
  }
  const double api = median(api_ns);
  report.add("server.parse_ns", parse, "ns");
  report.add("server.json_parse_ns", json, "ns");
  report.add("server.bind_ns", bind, "ns");
  report.add("server.render_ns", render, "ns");
  report.add("server.serialize_ns", serialize, "ns");
  const double stages_us =
      (parse + json + bind + api + render + serialize) / 1e3;
  report.add("server.transport_us", traced_p50 - stages_us, "us");
  report.note("server.transport_us = traced request p50 minus the sum of the "
              "in-process stage medians (sockets, queue hand-off, wake-ups)");
  report.add("server.queue_peak", static_cast<double>(stats.queue_peak),
             "count");
  report.add("server.shed",
             static_cast<double>(stats.shed_queue_full + stats.rate_limited),
             "count");
  report.add("api.predict_us", median_span_ns(stages, "api.predict") / 1e3,
             "us");
  report.add("api.rank_us", median_span_ns(stages, "api.rank") / 1e3, "us");
  report.add("api.tune_us", median_span_ns(stages, "api.tune") / 1e3, "us");
  report_trace_cache(before, after, report);
  tracer.append(stages);

  Tracer probe;
  probe_predict_layers(*engine, points, probe, report);
  tracer.append(probe);
  report.add("storage.open_ms", median(open_ms), "ms");
  report.add("storage.first_predict_ms", median(first_ms), "ms");
  report_generation_layers(gen, report);
  report_absent({"sampler.measure_us", "sampler.overhead_us"}, "us",
                "models come from the synthetic cost surface", report);
  report_absent({"blas.gflops"}, "GFLOP/s",
                "models come from the synthetic cost surface", report);
  write_spans(tracer, opt.trace_dir / "serve_hot.csv");
}

}  // namespace perfbench
