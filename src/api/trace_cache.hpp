#pragma once
// The engine-level sweep compiler's cache types.
//
// A sweep (blocksize tuning, variant ranking, a predict_many burst)
// revisits the same (family, variant, sizes, blocksize) points over and
// over -- across the sweep's own iterations, across repeated user
// queries, and across overlapping queries from many users. Each point's
// work factors into three layers of decreasing volatility:
//
//   1. the compiled trace                     -- fixed per sweep point;
//                                                recorded straight into
//                                                its compiled form by a
//                                                TraceCompiler, no
//                                                CallTrace in between,
//   2. the interned resolver ids of its keys  -- fixed per engine,
//   3. the resolved model pointers and the    -- valid until some model
//      prediction they give                      is (re)generated.
//
// CompiledSweepPoint captures 1+2 immutably and 3 as a versioned snapshot
// (ResolvedSlots) stamped with the engine's model-cache version; when a
// generation widens any model the version moves on and the snapshot is
// rebuilt on next use (invalidation-on-regeneration). The points live in
// a sharded LRU keyed by SweepPointKey, so a repeated or overlapping
// sweep skips recording, interning, resolution and prediction entirely.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru.hpp"
#include "predict/compiled_trace.hpp"
#include "sampler/locality.hpp"

namespace dlap {

/// Identity of one sweep point: the operation coordinates plus the system
/// whose interned ids the compiled form carries.
struct SweepPointKey {
  std::string op;  ///< operation family name ("trinv", "sylv", ...)
  int variant = 0;
  index_t m = 0;
  index_t n = 0;
  index_t blocksize = 0;
  std::string backend;
  Locality locality = Locality::InCache;

  [[nodiscard]] bool operator==(const SweepPointKey&) const = default;
};

struct SweepPointKeyHash {
  [[nodiscard]] std::size_t operator()(const SweepPointKey& k) const {
    std::size_t h = std::hash<std::string>{}(k.op);
    const auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::size_t>(k.variant));
    mix(static_cast<std::size_t>(k.m));
    mix(static_cast<std::size_t>(k.n));
    mix(static_cast<std::size_t>(k.blocksize));
    mix(std::hash<std::string>{}(k.backend));
    mix(static_cast<std::size_t>(k.locality));
    return h;
  }
};

/// Immutable snapshot of the models resolved for a compiled trace's keys,
/// stamped with the engine model-cache version it was built against, and
/// the answer they give. `pins[k]` answers keys()[k] (null only for keys
/// the prediction never consults) and keeps it alive for the snapshot's
/// lifetime. `prediction` is CompiledTrace::predict over those models,
/// computed once when the snapshot is built: it is a pure function of the
/// compiled trace and the pinned models, so it is valid exactly as long
/// as the snapshot is, and a warm query reads it instead of predicting.
struct ResolvedSlots {
  std::uint64_t version = 0;
  std::vector<std::shared_ptr<const RoutineModel>> pins;  // aligned per key
  Prediction prediction;
};

/// One cached sweep point: the compiled trace, its keys' interned ids
/// (stable for the owning engine's lifetime), and the current slot
/// snapshot.
class CompiledSweepPoint {
 public:
  CompiledSweepPoint(CompiledTrace trace, std::vector<int> ids)
      : trace_(std::move(trace)), ids_(std::move(ids)) {}

  [[nodiscard]] const CompiledTrace& trace() const noexcept { return trace_; }
  /// Interned resolver id per compiled key.
  [[nodiscard]] const std::vector<int>& ids() const noexcept { return ids_; }

  /// The snapshot if it is still current at `version`, nullptr otherwise
  /// (the caller then re-resolves and stores a fresh one).
  [[nodiscard]] std::shared_ptr<const ResolvedSlots> slots(
      std::uint64_t version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_ == nullptr || slots_->version != version) return nullptr;
    return slots_;
  }

  void store_slots(std::shared_ptr<const ResolvedSlots> slots) const {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_ = std::move(slots);
  }

 private:
  CompiledTrace trace_;
  std::vector<int> ids_;
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const ResolvedSlots> slots_;
};

using CompiledTraceCache =
    ShardedLru<SweepPointKey, CompiledSweepPoint, SweepPointKeyHash>;

}  // namespace dlap
