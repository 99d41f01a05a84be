#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------- tracing

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t request) {
  spans_.push_back({name, now_ns(), 0, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void Tracer::append(const Tracer& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> span_durations_ns(const Tracer& tracer,
                                      const char* name) {
  std::vector<double> out;
  for (const Span& span : tracer.spans()) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

double median_span_ns(const Tracer& tracer, const char* name) {
  return median(span_durations_ns(tracer, name));
}

void write_spans(const Tracer& tracer, const fs::path& file) {
  fs::create_directories(file.parent_path());
  std::ofstream out(file, std::ios::trunc);
  out << "name,start_ns,end_ns,parent,request\n";
  for (const Span& span : tracer.spans()) {
    out << span.name << ',' << span.start_ns << ',' << span.end_ns << ','
        << span.parent << ',' << span.request << '\n';
  }
}

// -------------------------------------------------------------- results

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double percentile(const std::vector<float>& values, double q) {
  return percentile(std::vector<double>(values.begin(), values.end()), q);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

void Report::fail(const std::string& why, std::uint64_t n) {
  if (failed_ < 20) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  failed_ += n;
}

int Report::finish() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    char number[64];
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return (failed_ == 0 && attempted_ > 0) ? 0 : 1;
}

void OpLog::record(Clock::time_point start, Clock::time_point t0,
                   Clock::time_point t1) {
  const auto us = static_cast<float>(us_between(t0, t1));
  ++completed;
  if (latency_us.size() < kReservoir) {
    latency_us.push_back(us);
  } else {
    // Algorithm R: keep each of the `completed` latencies with equal
    // probability (xorshift64 picks the slot).
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t slot = rng_ % completed;
    if (slot < kReservoir) latency_us[slot] = us;
  }
  const auto window = static_cast<std::size_t>(
      std::chrono::duration<double>(t1 - start).count());
  if (window >= per_second.size()) per_second.resize(window + 1, 0);
  ++per_second[window];
}

void OpLog::merge(const OpLog& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  if (other.per_second.size() > per_second.size()) {
    per_second.resize(other.per_second.size(), 0);
  }
  for (std::size_t w = 0; w < other.per_second.size(); ++w) {
    per_second[w] += other.per_second[w];
  }
  completed += other.completed;
  attempted += other.attempted;
  failed += other.failed;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// ------------------------------------------------------ inputs, checks

std::function<MeasureFn(const ModelJob&)> synthetic_measure(
    std::uint64_t seed) {
  return [seed](const ModelJob& job) {
    double offset = static_cast<double>(seed % 97);
    for (char c : ModelService::key_for(job).to_string()) {
      offset = 0.9 * offset + static_cast<double>(c);
    }
    return MeasureFn([offset](const std::vector<index_t>& point) {
      double cost = 100.0 + offset;
      double step = 1.0;
      for (index_t x : point) {
        const double v = static_cast<double>(x);
        cost += 2.0 * v + 0.05 * v * v;
        step *= 1.0 + 0.2 * std::tanh((v - 150.0) / 20.0);
      }
      cost *= step;
      SampleStats s;
      s.min = cost * 0.9;
      s.median = cost;
      s.mean = cost * 1.02;
      s.max = cost * 1.2;
      s.stddev = cost * 0.03;
      s.count = 5;
      return s;
    });
  };
}

std::string spec_fields(const OperationSpec& spec) {
  std::string out = "\"op\":\"" + spec.op +
                    "\",\"variant\":" + std::to_string(spec.variant);
  if (spec.m > 0) out += ",\"m\":" + std::to_string(spec.m);
  out += ",\"n\":" + std::to_string(spec.n) +
         ",\"blocksize\":" + std::to_string(spec.blocksize);
  return out;
}

bool same_bits(const Prediction& a, const Prediction& b) {
  const auto eq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return eq(a.ticks.min, b.ticks.min) && eq(a.ticks.median, b.ticks.median) &&
         eq(a.ticks.mean, b.ticks.mean) && eq(a.ticks.max, b.ticks.max) &&
         eq(a.ticks.stddev, b.ticks.stddev) && a.ticks.count == b.ticks.count &&
         eq(a.flops, b.flops) && a.calls == b.calls &&
         a.skipped == b.skipped && a.missing == b.missing;
}

std::map<std::string, std::string> model_files(const fs::path& dir) {
  std::map<std::string, std::string> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return total;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t Rng::next() {
  // splitmix64
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
