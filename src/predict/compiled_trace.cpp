#include "predict/compiled_trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace dlap {

CompiledTrace CompiledTrace::compile(const CallTrace& trace,
                                     const PredictionOptions& options) {
  TraceCompiler compiler(options);
  for (const KernelCall& call : trace) compiler.add(call);
  return compiler.finish();
}

TraceCompiler::TraceCompiler(const PredictionOptions& options) {
  out_.skip_empty_ = options.skip_empty_calls;
}

void TraceCompiler::add(const KernelCall& call) {
  add(call.routine, call.flags, call.sizes);
}

void TraceCompiler::add(RoutineId routine, std::span<const char> flags,
                        std::span<const index_t> sizes) {
  DLAP_REQUIRE(flags.size() <= kMaxFlags && sizes.size() <= kMaxSizes,
               "TraceCompiler: " + std::string(routine_name(routine)) +
                   " call has too many flag or size arguments");
  CallKey key;
  key.routine = routine;
  key.nflags = static_cast<std::uint8_t>(flags.size());
  key.nsizes = static_cast<std::uint8_t>(sizes.size());
  std::copy(flags.begin(), flags.end(), key.flags);
  std::copy(sizes.begin(), sizes.end(), key.sizes);
  add(key);
}

void TraceCompiler::add(const CallKey& key) {
  ++out_.source_calls_;
  const index_t* const sizes_end = key.sizes + key.nsizes;
  const bool degenerate =
      std::find(key.sizes, sizes_end, index_t{0}) != sizes_end;
  if (out_.skip_empty_ && degenerate) {
    ++out_.skipped_;
    out_.order_.push_back(CompiledTrace::kSkippedCall);
    return;
  }

  if (2 * (out_.entries_.size() + 1) > table_.size()) grow_table();
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash(key) & mask;
  while (table_[slot] >= 0) {
    const auto e = static_cast<std::size_t>(table_[slot]);
    if (entry_keys_[e] == key) {
      ++out_.entries_[e].multiplicity;
      out_.order_.push_back(table_[slot]);
      return;
    }
    slot = (slot + 1) & mask;
  }

  // First appearance: the only place a call allocates.
  const auto index = static_cast<std::int32_t>(out_.entries_.size());
  table_[slot] = index;
  entry_keys_.push_back(key);
  CompiledCall entry;
  entry.key = key_index(key);
  entry.sizes.assign(key.sizes, sizes_end);
  entry.point.assign(key.sizes, sizes_end);
  KernelCall call;
  call.routine = key.routine;
  call.flags.assign(key.flags, key.flags + key.nflags);
  call.sizes = entry.sizes;
  entry.flops = call_flops(call);
  entry.multiplicity = 1;
  entry.degenerate = degenerate;
  out_.key_entries_[static_cast<std::size_t>(entry.key)].push_back(
      static_cast<std::uint32_t>(index));
  out_.entries_.push_back(std::move(entry));
  out_.order_.push_back(index);
}

std::size_t TraceCompiler::hash(const CallKey& key) {
  std::uint64_t h = static_cast<std::uint64_t>(key.routine) + 1;
  for (std::size_t i = 0; i < key.nflags; ++i) {
    h = (h << 8) | static_cast<unsigned char>(key.flags[i]);
  }
  for (std::size_t i = 0; i < key.nsizes; ++i) {
    h = (h ^ static_cast<std::uint64_t>(key.sizes[i])) * 0x9e3779b97f4a7c15ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 29));
}

int TraceCompiler::key_index(const CallKey& key) {
  // Traces touch a handful of (routine, flags) keys: a scan over the
  // entries that opened each key beats any map.
  for (std::size_t k = 0; k < out_.keys_.size(); ++k) {
    const CallKey& first = entry_keys_[out_.key_entries_[k].front()];
    if (first.routine == key.routine && first.nflags == key.nflags &&
        std::equal(key.flags, key.flags + key.nflags, first.flags)) {
      return static_cast<int>(k);
    }
  }
  out_.keys_.push_back(
      {key.routine, std::string(key.flags, key.flags + key.nflags)});
  out_.key_entries_.emplace_back();
  return static_cast<int>(out_.keys_.size() - 1);
}

void TraceCompiler::grow_table() {
  table_.assign(table_.empty() ? 64 : 2 * table_.size(), -1);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t e = 0; e < entry_keys_.size(); ++e) {
    std::size_t slot = hash(entry_keys_[e]) & mask;
    while (table_[slot] >= 0) slot = (slot + 1) & mask;
    table_[slot] = static_cast<std::int32_t>(e);
  }
}

CompiledTrace TraceCompiler::finish() {
  // The result lives on in a trace cache: drop the growth slack.
  out_.order_.shrink_to_fit();
  out_.entries_.shrink_to_fit();
  out_.keys_.shrink_to_fit();
  out_.key_entries_.shrink_to_fit();
  for (auto& entries : out_.key_entries_) entries.shrink_to_fit();
  CompiledTrace done = std::move(out_);
  out_ = CompiledTrace();
  out_.skip_empty_ = done.skip_empty_;
  entry_keys_.clear();
  table_.clear();
  return done;
}

void TraceCompiler::gemm(Trans transa, Trans transb, index_t m, index_t n,
                         index_t k, double, const double*, index_t,
                         const double*, index_t, double, double*, index_t) {
  add(RoutineId::Gemm, std::array{to_char(transa), to_char(transb)},
      std::array{m, n, k});
}

void TraceCompiler::trsm(Side side, Uplo uplo, Trans transa, Diag diag,
                         index_t m, index_t n, double, const double*, index_t,
                         double*, index_t) {
  add(RoutineId::Trsm,
      std::array{to_char(side), to_char(uplo), to_char(transa),
                 to_char(diag)},
      std::array{m, n});
}

void TraceCompiler::trmm(Side side, Uplo uplo, Trans transa, Diag diag,
                         index_t m, index_t n, double, const double*, index_t,
                         double*, index_t) {
  add(RoutineId::Trmm,
      std::array{to_char(side), to_char(uplo), to_char(transa),
                 to_char(diag)},
      std::array{m, n});
}

void TraceCompiler::syrk(Uplo uplo, Trans trans, index_t n, index_t k, double,
                         const double*, index_t, double, double*, index_t) {
  add(RoutineId::Syrk, std::array{to_char(uplo), to_char(trans)},
      std::array{n, k});
}

void TraceCompiler::trinv_unb(int variant, index_t n, double*, index_t) {
  add(trinv_unb_routine(variant), {}, std::array{n});
}

void TraceCompiler::chol_unb(int variant, index_t n, double*, index_t) {
  add(chol_unb_routine(variant), {}, std::array{n});
}

void TraceCompiler::sylv_unb(index_t m, index_t n, const double*, index_t,
                             const double*, index_t, double*, index_t) {
  add(RoutineId::SylvUnb, {}, std::array{m, n});
}

Prediction CompiledTrace::predict(
    const std::vector<const RoutineModel*>& models_by_key) const {
  DLAP_REQUIRE(models_by_key.size() == keys_.size(),
               "CompiledTrace::predict: one model slot per key");

  // Evaluate every unique entry once, batched per key so one model's
  // region index and polynomial basis serve the whole batch.
  std::vector<SampleStats> est(entries_.size());
  std::vector<const std::vector<double>*> batch;
  std::vector<SampleStats> batch_out;
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const RoutineModel* model = models_by_key[k];
    if (model == nullptr) continue;  // occurrences counted missing below
    const auto& idxs = key_entries_[k];
    batch.clear();
    batch.reserve(idxs.size());
    for (std::uint32_t e : idxs) {
      batch.push_back(&entries_[e].point);
    }
    model->model.evaluate_many(batch, batch_out);
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      est[idxs[j]] = batch_out[j];
    }
  }

  // Accumulate the cached estimates in source-call order: the exact loop
  // of Predictor::predict, with the model evaluation replaced by an array
  // read. This -- not multiplicity-scaled folding -- is what keeps the
  // result bit-identical for arbitrary model values.
  Prediction out;
  double var_sum = 0.0;
  for (const std::int32_t o : order_) {
    if (o == kSkippedCall) {
      ++out.skipped;
      continue;
    }
    const CompiledCall& entry = entries_[static_cast<std::size_t>(o)];
    if (models_by_key[static_cast<std::size_t>(entry.key)] == nullptr) {
      ++out.missing;
      continue;
    }
    const SampleStats& e = est[static_cast<std::size_t>(o)];
    out.ticks.min += e.min;
    out.ticks.median += e.median;
    out.ticks.mean += e.mean;
    out.ticks.max += e.max;
    var_sum += e.stddev * e.stddev;
    out.flops += entry.flops;
    ++out.calls;
  }
  out.ticks.stddev = std::sqrt(var_sum);
  out.ticks.count = out.calls;
  return out;
}

}  // namespace dlap
