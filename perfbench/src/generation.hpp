#pragma once
// Cold model generation followed by journal-only regeneration, shared by
// every workload: serve_hot and sweep_cold generate their models from the
// synthetic cost surface (sampling bypassed), generate_cold with the real
// Sampler on the blocked backend.

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct GenerationConfig {
  std::vector<OperationSpec> specs;
  /// Measurement source per job; empty means the real Sampler.
  std::function<MeasureFn(const ModelJob&)> measure;
  index_t workers = 4;
  /// Journal-only regenerations per round, each in a fresh repository;
  /// their mean wall time is the round's regenerate_s sample.
  int regenerations = 1;
};

/// Accumulates over rounds: timings of the recorded rounds, accounting of
/// the latest round.
struct GenerationOutcome {
  std::vector<double> generate_s;    ///< cold Engine::prepare, per round
  std::vector<double> regenerate_s;  ///< journal-only prepare, per round
                                     ///< (mean of its regenerations)
  std::vector<double> cold_batches;  ///< measurement batches, per round
  /// Interval between two consecutive measurement batches of one key
  /// (ServiceConfig::on_progress), every round; a key's first batch has
  /// no start mark and is not included.
  std::vector<double> batch_us;
  std::vector<GenerationStats> key_stats;  ///< cold phase, latest round
  PrepareReport cold;                      ///< latest round
  PrepareReport regen;                     ///< latest round
  std::uint64_t bytes_written = 0;  ///< latest round's models + journals
  fs::path repo_dir;                ///< latest round's cold repository
  int rounds = 0;                   ///< rounds run, recorded or not
};

/// The spec set whose models serve_hot and sweep_cold query: trinv and
/// chol at n = 256 for block sizes 16..128, sylv at 256 x 256 for block
/// sizes 16, 24, 32, 48. Its planned domains cover every query of both.
[[nodiscard]] std::vector<OperationSpec> synthetic_specs();

/// Engine settings shared by every engine the benchmark builds.
[[nodiscard]] EngineConfig engine_config(
    const fs::path& repo_dir, index_t workers,
    std::function<MeasureFn(const ModelJob&)> measure);

/// One round under `work`: prepares the specs in a fresh repository,
/// then again, config.regenerations times, in fresh repositories fed only
/// by the first one's sample journals, and removes the previous round's
/// directory. Appends the timings to `out` when `record` (an unrecorded
/// first round keeps process start-up costs out of them). Checks, each a
/// counted operation: every prepare succeeds, every regeneration
/// measures zero points and writes model files byte-identical to the
/// cold ones.
void generation_round(const GenerationConfig& config, const fs::path& work,
                      Tracer* tracer, Fault fault, bool record, Report& report,
                      GenerationOutcome& out);

}  // namespace perfbench
