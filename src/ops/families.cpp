// Built-in operation families: the paper's two worked examples (trinv,
// sylv) plus blocked Cholesky, registered as OperationDescriptors. This is
// the only translation unit that knows the built-in family names; the api
// layer reaches every family through OperationRegistry lookups.
//
// The spec/query convenience factories (OperationSpec::trinv, ...,
// RankQuery::chol_variants) are defined here too, next to the
// registrations they depend on — they are pure sugar over
// OperationSpec::of / RankQuery::all_variants.

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "ops/registry.hpp"
#include "predict/trace.hpp"

namespace dlap {

namespace ops {

void register_builtin_families(OperationRegistry& registry) {
  // Triangular inversion L <- L^{-1} (paper Section IV-A): 4 blocked
  // variants over one size axis.
  OperationDescriptor trinv;
  trinv.name = "trinv";
  trinv.variant_count = kTrinvVariantCount;
  trinv.size_axes = 1;
  trinv.record = [](const OperationSpec& s, KernelContext& ctx) {
    record_trinv(ctx, s.variant, s.n, s.blocksize);
  };
  trinv.nominal_flops = [](const OperationSpec& s) {
    return trinv_flops(s.n);
  };
  registry.register_family(std::move(trinv));

  // Triangular Sylvester solve L X + X U = C (Section IV-B): 16 block
  // dataflow schedules over two size axes.
  OperationDescriptor sylv;
  sylv.name = "sylv";
  sylv.variant_count = kSylvVariantCount;
  sylv.size_axes = 2;
  sylv.record = [](const OperationSpec& s, KernelContext& ctx) {
    record_sylv(ctx, s.variant, s.m, s.n, s.blocksize);
  };
  sylv.nominal_flops = [](const OperationSpec& s) {
    return sylv_flops(s.m, s.n);
  };
  registry.register_family(std::move(sylv));

  // Cholesky factorization A = L L^T (algorithms/chol.hpp): 3 classic
  // blocked variants over one size axis.
  OperationDescriptor chol;
  chol.name = "chol";
  chol.variant_count = kCholVariantCount;
  chol.size_axes = 1;
  chol.record = [](const OperationSpec& s, KernelContext& ctx) {
    record_chol(ctx, s.variant, s.n, s.blocksize);
  };
  chol.nominal_flops = [](const OperationSpec& s) {
    return chol_flops(s.n);
  };
  registry.register_family(std::move(chol));
}

}  // namespace ops

OperationSpec OperationSpec::trinv(int variant, index_t n,
                                   index_t blocksize) {
  return of("trinv", variant, /*m=*/0, n, blocksize);
}

OperationSpec OperationSpec::sylv(int variant, index_t m, index_t n,
                                  index_t blocksize) {
  return of("sylv", variant, m, n, blocksize);
}

OperationSpec OperationSpec::chol(int variant, index_t n,
                                  index_t blocksize) {
  return of("chol", variant, /*m=*/0, n, blocksize);
}

RankQuery RankQuery::trinv_variants(index_t n, index_t blocksize) {
  return all_variants(OperationSpec::trinv(1, n, blocksize));
}

RankQuery RankQuery::sylv_variants(index_t m, index_t n, index_t blocksize) {
  return all_variants(OperationSpec::sylv(1, m, n, blocksize));
}

RankQuery RankQuery::chol_variants(index_t n, index_t blocksize) {
  return all_variants(OperationSpec::chol(1, n, blocksize));
}

}  // namespace dlap
