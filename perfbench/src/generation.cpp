#include "generation.hpp"

#include <mutex>

namespace perfbench {

EngineConfig engine_config(const fs::path& repo_dir, index_t workers,
                           std::function<MeasureFn(const ModelJob&)> measure) {
  EngineConfig cfg;
  cfg.service.repository_dir = repo_dir;
  cfg.service.workers = workers;
  cfg.service.measure_factory = std::move(measure);
  return cfg;
}

std::vector<OperationSpec> synthetic_specs() {
  std::vector<OperationSpec> specs;
  for (index_t b = 16; b <= 128; b += 8) {
    for (int v = 1; v <= 4; ++v) {
      specs.push_back(OperationSpec::trinv(v, 256, b));
    }
    for (int v = 1; v <= 3; ++v) {
      specs.push_back(OperationSpec::chol(v, 256, b));
    }
  }
  for (index_t b : {16, 24, 32, 48}) {
    for (int v = 1; v <= 16; ++v) {
      specs.push_back(OperationSpec::sylv(v, 256, 256, b));
    }
  }
  return specs;
}

namespace {

/// Records the time between consecutive batches of each key.
class BatchClock {
 public:
  void on_batch(const ModelKey& key) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = last_.try_emplace(key.to_string(), now);
    if (!fresh) {
      intervals_us_.push_back(us_between(it->second, now));
      it->second = now;
    }
  }
  [[nodiscard]] std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    last_.clear();
    return std::move(intervals_us_);
  }

 private:
  std::mutex mutex_;
  std::map<std::string, Clock::time_point> last_;
  std::vector<double> intervals_us_;
};

}  // namespace

void generation_round(const GenerationConfig& config, const fs::path& work,
                      Tracer* tracer, Fault fault, bool record, Report& report,
                      GenerationOutcome& out) {
  const fs::path base = work / ("gen" + std::to_string(out.rounds++));
  const fs::path cold_dir = base / "cold";
  fs::remove_all(base);

  BatchClock batches;
  EngineConfig cold_cfg =
      engine_config(cold_dir, config.workers, config.measure);
  cold_cfg.service.on_progress = [&batches](const ModelKey& key,
                                            const GenerationStats&) {
    batches.on_batch(key);
  };

  // Cold phase: empty repository, empty sample store.
  {
    Engine engine(cold_cfg);
    PrepareReport prep;
    report.attempt();
    const auto t0 = Clock::now();
    Status status;
    {
      Scope span(tracer, "api.prepare_cold");
      status = engine.prepare(config.specs, {}, &prep);
    }
    const double seconds = seconds_since(t0);
    if (!status.ok()) report.fail("cold prepare: " + status.to_string());
    out.cold = prep;
    out.key_stats.clear();
    double batch_count = 0.0;
    for (const PrepareReport::Key& key : prep.keys) {
      if (auto stats = engine.service().generation_stats(key.key)) {
        out.key_stats.push_back(*stats);
        batch_count += static_cast<double>(stats->batches);
      }
    }
    if (record) {
      out.generate_s.push_back(seconds);
      out.cold_batches.push_back(batch_count);
    }
  }
  const std::vector<double> intervals = batches.take();
  if (record) {
    out.batch_us.insert(out.batch_us.end(), intervals.begin(), intervals.end());
  }
  out.bytes_written = tree_bytes(cold_dir);

  // Regeneration: fresh model repositories, fed only by the journals the
  // cold phase wrote.
  auto cold_files = model_files(cold_dir);
  if (fault == Fault::ModelFile && !cold_files.empty()) {
    cold_files.begin()->second[0] ^= 0x01;
  }
  double regen_s = 0.0;
  for (int k = 0; k < config.regenerations; ++k) {
    const fs::path regen_dir = base / ("regen" + std::to_string(k));
    EngineConfig regen_cfg =
        engine_config(regen_dir, config.workers, config.measure);
    regen_cfg.service.sample_dir = cold_dir / "samples";
    PrepareReport prep;
    report.attempt();
    {
      Engine engine(regen_cfg);
      const auto t0 = Clock::now();
      Status status;
      {
        Scope span(tracer, "api.prepare_regen");
        status = engine.prepare(config.specs, {}, &prep);
      }
      regen_s += seconds_since(t0);
      if (!status.ok()) report.fail("regeneration: " + status.to_string());
    }
    out.regen = prep;

    report.attempt();
    if (prep.points_measured() != 0) {
      report.fail("regeneration measured " +
                  std::to_string(prep.points_measured()) +
                  " points; the journals should serve all of them");
    }
    report.attempt();
    if (cold_files.empty() || cold_files != model_files(regen_dir)) {
      report.fail("regenerated model files differ from the cold phase's");
    }
    fs::remove_all(regen_dir);
  }
  if (record) out.regenerate_s.push_back(regen_s / config.regenerations);

  if (!out.repo_dir.empty()) fs::remove_all(out.repo_dir.parent_path());
  out.repo_dir = cold_dir;
}

}  // namespace perfbench
