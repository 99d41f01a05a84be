#include "api/query.hpp"

#include <utility>

#include "ops/registry.hpp"
#include "predict/ranking.hpp"

namespace dlap {

std::string SystemSpec::to_string() const {
  return backend + "/" + locality_name(locality);
}

OperationSpec OperationSpec::of(std::string op, int variant, index_t m,
                                index_t n, index_t blocksize) {
  OperationSpec spec;
  spec.op = std::move(op);
  spec.variant = variant;
  spec.m = m;
  spec.n = n;
  spec.blocksize = blocksize;
  return spec;
}

Status OperationSpec::validate() const {
  const OperationDescriptor* family = OperationRegistry::instance().find(op);
  if (family == nullptr) {
    std::string known;
    for (const std::string& name : OperationRegistry::instance().names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::error(StatusCode::ParseError,
                         to_string() + ": unknown operation family '" + op +
                             "' (registered: " + known + ")");
  }
  if (variant < 1 || variant > family->variant_count) {
    return Status::error(StatusCode::InvalidQuery,
                         to_string() + ": variant must be in [1, " +
                             std::to_string(family->variant_count) + "]");
  }
  if (n < 1 || (family->size_axes >= 2 && m < 1)) {
    return Status::error(StatusCode::InvalidQuery,
                         to_string() + ": sizes must be >= 1");
  }
  if (blocksize < 1) {
    return Status::error(StatusCode::InvalidQuery,
                         to_string() + ": blocksize must be >= 1");
  }
  return {};
}

void OperationSpec::record(KernelContext& ctx) const {
  OperationRegistry::instance().require(op).record(*this, ctx);
}

CallTrace OperationSpec::trace() const {
  TraceContext ctx;
  record(ctx);
  return ctx.take();
}

double OperationSpec::nominal_flops() const {
  return OperationRegistry::instance().require(op).nominal_flops(*this);
}

std::string OperationSpec::to_string() const {
  const OperationDescriptor* family = OperationRegistry::instance().find(op);
  std::string out = op + " v" + std::to_string(variant);
  if (family != nullptr && family->size_axes >= 2) {
    out += " m=" + std::to_string(m);
  }
  out += " n=" + std::to_string(n);
  out += " b=" + std::to_string(blocksize);
  return out;
}

PredictQuery PredictQuery::of(OperationSpec spec) {
  PredictQuery q;
  q.spec = std::move(spec);
  return q;
}

PredictQuery PredictQuery::of(CallTrace trace) {
  PredictQuery q;
  q.trace = std::move(trace);
  return q;
}

RankQuery RankQuery::all_variants(OperationSpec prototype) {
  RankQuery q;
  const OperationDescriptor* family =
      OperationRegistry::instance().find(prototype.op);
  if (family == nullptr) {
    // Unknown family: carry the prototype so rank() surfaces its
    // validation status instead of silently answering an empty query.
    q.candidates.push_back(std::move(prototype));
    return q;
  }
  q.candidates.reserve(static_cast<std::size_t>(family->variant_count));
  for (int v = 1; v <= family->variant_count; ++v) {
    OperationSpec spec = prototype;
    spec.variant = v;
    q.candidates.push_back(std::move(spec));
  }
  return q;
}

std::vector<double> Ranking::median_ticks() const {
  std::vector<double> out;
  out.reserve(predictions.size());
  for (const Prediction& p : predictions) out.push_back(p.ticks.median);
  return out;
}

std::vector<double> TuneResult::median_ticks() const {
  std::vector<double> out;
  out.reserve(predictions.size());
  for (const Prediction& p : predictions) out.push_back(p.ticks.median);
  return out;
}

}  // namespace dlap
