#pragma once
// The three workloads. Each builds its inputs from the seed, measures for
// opt.seconds, checks every answer it is given, and adds its metrics to
// the report: the end-to-end set untraced, the per-layer set traced.

#include "common.hpp"

namespace perfbench {

/// dlapd over loopback: keep-alive clients in a closed loop over a
/// seeded predict/rank/tune mix answered from a packed container.
void run_serve_hot(const Options& opt, Report& report);

/// In-process Engine, no server: a closed loop of tune and 16-way rank
/// queries whose sweep points overflow the trace cache.
void run_sweep_cold(const Options& opt, Report& report);

/// Real Sampler on the blocked backend: cold Engine::prepare from empty
/// stores, then regeneration from the sample journals alone.
void run_generate_cold(const Options& opt, Report& report);

/// The end-to-end metrics every workload prints when untraced, gathered
/// over the run. Workloads interleave their phases (generation rounds,
/// set-ups, timed segments) across the whole run, so every metric samples
/// the same stretch of machine time.
struct EndToEnd {
  /// Operations per second: one value per whole one-second window of the
  /// timed segments (per round on generate_cold); the median is reported.
  std::vector<double> throughput;
  std::uint64_t operations = 0;     ///< timed operations completed
  std::vector<float> latencies_us;  ///< all of them, or a uniform sample
  std::vector<double> generate_s;
  std::vector<double> regenerate_s;
  std::vector<double> setup_s;

  /// Peak resident set over the timed segments, in MB; while no segment
  /// has been added, the whole process's peak is reported instead.
  double segment_peak_rss_mb = 0.0;
  bool rss_reset_failed = false;

  /// Resets the process's peak resident set, so the next segment's peak
  /// belongs to that segment alone.
  void begin_segment();
  /// Adds one timed closed-loop segment.
  void add_segment(const OpLog& log, double elapsed_s);
};

/// Adds the end-to-end metrics (medians of the per-round values) plus
/// success_rate and peak_rss_mb, and notes the sample counts.
void report_end_to_end(const EndToEnd& e2e, Report& report);

}  // namespace perfbench
