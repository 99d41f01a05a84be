#pragma once
// Shared pieces of the perfbench binary: command-line options, in-memory
// span tracing, the result line, and the helpers every workload uses to
// build its inputs and check its outputs.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/engine.hpp"

namespace perfbench {

using namespace dlap;  // the benchmark drives the library's public API
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`; microseconds from `a` to `b`.
[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double us_between(Clock::time_point a, Clock::time_point b);

/// Deliberate faults that prove the benchmark's own checks can fail.
enum class Fault {
  None,
  Body,        ///< serve_hot: flip one byte of one expected response body
  Prediction,  ///< sweep_cold: perturb one reference prediction by 1 ulp
  ModelFile,   ///< generate_cold: flip one byte of one cold model file
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;   ///< scratch space inside the checkout
  fs::path trace_dir;  ///< where traced runs write their spans
  Fault fault = Fault::None;
};

// ------------------------------------------------------------- tracing

/// One recorded interval: name, start, end, parent span (-1 for a root)
/// and the request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span buffer owned by one thread. A null Tracer* means
/// tracing is off; Scope then costs one branch.
class Tracer {
 public:
  [[nodiscard]] std::int32_t begin(const char* name, std::int32_t parent,
                                   std::uint64_t request);
  void end(std::int32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void append(const Tracer& other);

 private:
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request = 0,
        std::int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Durations (ns) of every span called `name`.
[[nodiscard]] std::vector<double> span_durations_ns(const Tracer& tracer,
                                                    const char* name);
/// Median duration of the spans called `name`, in ns (0 when none).
[[nodiscard]] double median_span_ns(const Tracer& tracer, const char* name);

/// Writes every span as CSV (name,start_ns,end_ns,parent,request).
void write_spans(const Tracer& tracer, const fs::path& file);

// -------------------------------------------------------------- results

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double percentile(const std::vector<float>& values, double q);

/// Collects metrics and failure counts and prints the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A '#' line on stdout before the result (sample counts, absences).
  void note(const std::string& text);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Prints the JSON result as the last stdout line; returns the exit
  /// code (nonzero when any check failed).
  [[nodiscard]] int finish() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// What one closed-loop thread saw: a uniform sample of its operation
/// latencies and how many operations completed in each one-second window
/// since the loop began. The sample is a fixed-size reservoir, so the
/// log's own memory does not grow with throughput and move peak_rss_mb.
struct OpLog {
  static constexpr std::size_t kReservoir = 1 << 14;

  std::vector<float> latency_us;  ///< the sample (all, until it is full)
  std::vector<std::uint32_t> per_second;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(Clock::time_point start, Clock::time_point t0,
              Clock::time_point t1);
  /// Appends another thread's log (the merged sample keeps every
  /// thread's reservoir).
  void merge(const OpLog& other);

 private:
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Resets the peak resident set to the current one (writes 5 to
/// /proc/self/clear_refs); false when the kernel refuses.
bool reset_peak_rss();

// ------------------------------------------------------ inputs, checks

/// Deterministic cost surface standing in for the Sampler on serve_hot
/// and sweep_cold: a smooth quadratic with a soft step, so Adaptive
/// Refinement splits regions as it does on real timings, and regenerated
/// models are bit-identical.
[[nodiscard]] std::function<MeasureFn(const ModelJob&)> synthetic_measure(
    std::uint64_t seed);

/// JSON request body for a spec ({"op",...}), as a dlapd client sends it.
[[nodiscard]] std::string spec_fields(const OperationSpec& spec);

/// Bitwise equality of two predictions (every statistic, flops, counts).
[[nodiscard]] bool same_bits(const Prediction& a, const Prediction& b);

/// Contents of every *.model file directly under `dir`, by file name.
[[nodiscard]] std::map<std::string, std::string> model_files(
    const fs::path& dir);

/// Total size of the regular files under `dir` (recursive).
[[nodiscard]] std::uint64_t tree_bytes(const fs::path& dir);

/// Small deterministic generator for workload inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
