#include <algorithm>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void EndToEnd::begin_segment() {
  if (!reset_peak_rss()) rss_reset_failed = true;
}

void EndToEnd::add_segment(const OpLog& log, double elapsed_s) {
  segment_peak_rss_mb = std::max(segment_peak_rss_mb, peak_rss_mb());
  const auto windows =
      std::min(static_cast<std::size_t>(elapsed_s), log.per_second.size());
  for (std::size_t w = 0; w < windows; ++w) {
    throughput.push_back(static_cast<double>(log.per_second[w]));
  }
  if (windows == 0 && elapsed_s > 0) {
    throughput.push_back(static_cast<double>(log.completed) / elapsed_s);
  }
  operations += log.completed;
  latencies_us.insert(latencies_us.end(), log.latency_us.begin(),
                      log.latency_us.end());
}

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  // Read before the percentile copies below.
  const bool per_segment =
      e2e.segment_peak_rss_mb > 0.0 && !e2e.rss_reset_failed;
  const double rss_mb =
      per_segment ? e2e.segment_peak_rss_mb : peak_rss_mb();
  const double p99 = percentile(e2e.latencies_us, 0.99);
  std::size_t beyond = 0;
  for (float v : e2e.latencies_us) beyond += v > p99 ? 1 : 0;
  report.add("throughput_qps", median(e2e.throughput), "1/s");
  report.add("latency_p50_us", percentile(e2e.latencies_us, 0.5), "us");
  report.add("latency_p99_us", p99, "us");
  report.add("generate_s", median(e2e.generate_s), "s");
  report.add("regenerate_s", median(e2e.regenerate_s), "s");
  report.add("setup_s", median(e2e.setup_s), "s");
  const auto attempted = static_cast<double>(report.attempted());
  const auto failed = static_cast<double>(report.failed());
  report.add("success_rate",
             attempted > 0 ? (attempted - failed) / attempted : 0.0, "ratio");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.note("latency samples: " + std::to_string(e2e.latencies_us.size()) +
              " of " + std::to_string(e2e.operations) + " operations (" +
              std::to_string(beyond) + " beyond p99); " +
              std::to_string(e2e.throughput.size()) +
              " throughput samples; rounds: " +
              std::to_string(e2e.generate_s.size()) + " generate, " +
              std::to_string(e2e.regenerate_s.size()) + " regenerate, " +
              std::to_string(e2e.setup_s.size()) + " setup");
  report.note(per_segment
                  ? "peak_rss_mb: peak over the timed segments (VmHWM reset "
                    "before each)"
                  : "peak_rss_mb: peak of the whole process");
  report.note("error_rate: " + std::to_string(report.failed()) + " failed / " +
              std::to_string(report.attempted()) + " attempted");
}

}  // namespace perfbench
