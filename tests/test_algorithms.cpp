// Tests for the target algorithms: the four trinv variants, the sixteen
// Sylvester variants and the three Cholesky variants (blocked and
// unblocked), all checked against independent mathematical properties
// (L * L^{-1} = I, residual of L X + X U = C, ||L L^T - A|| / ||A||),
// across block sizes and rectangular shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "blas/registry.hpp"
#include "common/matrix.hpp"
#include "common/matrix_util.hpp"
#include "common/rng.hpp"

namespace dlap {
namespace {

// || L_inv * L_orig - I ||_F / n
double trinv_residual(const Matrix& linv, const Matrix& lorig) {
  const index_t n = lorig.rows();
  Matrix prod(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      // Both factors lower triangular: k ranges j..i.
      for (index_t k = j; k <= i; ++k) s += linv(i, k) * lorig(k, j);
      prod(i, j) = s;
    }
  }
  Matrix id(n, n);
  set_identity(id.view());
  return relative_diff(prod.view(), id.view());
}

// || L X + X U - C ||_F / ||C||_F
double sylv_residual(const Matrix& l, const Matrix& u, const Matrix& x,
                     const Matrix& c) {
  const index_t m = x.rows();
  const index_t n = x.cols();
  Matrix r(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += l(i, k) * x(k, j);
      for (index_t k = 0; k <= j; ++k) s += x(i, k) * u(k, j);
      r(i, j) = s;
    }
  }
  return relative_diff(r.view(), c.view());
}

// || L L^T - A ||_F / ||A||_F, with L the lower triangle of `factored`
// and A the original symmetric matrix (only its lower triangle read).
double chol_residual(const Matrix& factored, const Matrix& aorig) {
  const index_t n = aorig.rows();
  Matrix prod(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      // (L L^T)(i,j) = sum_k L(i,k) L(j,k), k <= min(i,j).
      const index_t kmax = std::min(i, j);
      for (index_t k = 0; k <= kmax; ++k) {
        s += factored(i, k) * factored(j, k);
      }
      prod(i, j) = s;
    }
  }
  Matrix full(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      full(i, j) = (i >= j) ? aorig(i, j) : aorig(j, i);
    }
  }
  return relative_diff(prod.view(), full.view());
}

// ------------------------------------------------------------ trinv unb

class TrinvUnblockedTest : public ::testing::TestWithParam<int> {};

TEST_P(TrinvUnblockedTest, InvertsAcrossSizes) {
  const int variant = GetParam();
  Rng rng(100 + variant);
  for (index_t n : {1, 2, 3, 8, 17, 64, 129}) {
    Matrix l(n, n, n + 2);
    fill_lower_triangular(l.view(), rng);
    Matrix l0(n, n);
    copy_matrix(l.view(), l0.view());
    trinv_unblocked(variant, n, l.data(), l.ld());
    EXPECT_LT(trinv_residual(l, l0), 1e-11)
        << "variant " << variant << " n=" << n;
  }
}

TEST_P(TrinvUnblockedTest, ZeroSizeIsNoop) {
  double sentinel = 42.0;
  trinv_unblocked(GetParam(), 0, &sentinel, 1);
  EXPECT_EQ(sentinel, 42.0);
}

INSTANTIATE_TEST_SUITE_P(Variants, TrinvUnblockedTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(TrinvUnblocked, AllVariantsProduceIdenticalResults) {
  Rng rng(7);
  const index_t n = 40;
  Matrix l0(n, n);
  fill_lower_triangular(l0.view(), rng);
  Matrix ref(n, n);
  copy_matrix(l0.view(), ref.view());
  trinv_unblocked(1, n, ref.data(), n);
  for (int v = 2; v <= 4; ++v) {
    Matrix l(n, n);
    copy_matrix(l0.view(), l.view());
    trinv_unblocked(v, n, l.data(), n);
    EXPECT_LT(relative_diff(l.view(), ref.view()), 1e-12) << "variant " << v;
  }
}

TEST(TrinvUnblocked, SingularThrows) {
  Matrix l(3, 3);
  l(0, 0) = 1.0;
  l(1, 1) = 0.0;
  l(2, 2) = 1.0;
  for (int v = 1; v <= 4; ++v) {
    Matrix c(3, 3);
    copy_matrix(l.view(), c.view());
    EXPECT_THROW(trinv_unblocked(v, 3, c.data(), 3), numerical_error)
        << "variant " << v;
  }
}

TEST(TrinvUnblocked, RejectsBadArguments) {
  double x = 1.0;
  EXPECT_THROW(trinv_unblocked(0, 1, &x, 1), invalid_argument_error);
  EXPECT_THROW(trinv_unblocked(5, 1, &x, 1), invalid_argument_error);
  EXPECT_THROW(trinv_unblocked(1, 4, &x, 2), invalid_argument_error);
}

// --------------------------------------------------------- trinv blocked

class TrinvBlockedTest
    : public ::testing::TestWithParam<std::tuple<int, index_t, const char*>> {
};

TEST_P(TrinvBlockedTest, InvertsForAllBlocksizes) {
  const auto [variant, blocksize, bname] = GetParam();
  ExecContext ctx(backend_instance(bname));
  Rng rng(variant * 1000 + blocksize);
  for (index_t n : {1, 13, 96, 150}) {
    Matrix l(n, n);
    fill_lower_triangular(l.view(), rng);
    Matrix l0(n, n);
    copy_matrix(l.view(), l0.view());
    trinv_blocked(ctx, variant, n, l.data(), n > 0 ? n : 1, blocksize);
    EXPECT_LT(trinv_residual(l, l0), 1e-10)
        << "variant " << variant << " b=" << blocksize << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsBlocksizesBackends, TrinvBlockedTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values<index_t>(1, 7, 32, 96, 200),
                       ::testing::Values("naive", "blocked")));

TEST(TrinvBlocked, MatchesUnblockedExactlyAtBlocksizeOne) {
  // Blocked with b = 1 must perform the same arithmetic as unblocked.
  Rng rng(3);
  const index_t n = 24;
  Matrix l0(n, n);
  fill_lower_triangular(l0.view(), rng);
  ExecContext ctx(backend_instance("naive"));
  for (int v = 1; v <= 4; ++v) {
    Matrix a(n, n), b(n, n);
    copy_matrix(l0.view(), a.view());
    copy_matrix(l0.view(), b.view());
    trinv_blocked(ctx, v, n, a.data(), n, 1);
    trinv_unblocked(v, n, b.data(), n);
    EXPECT_LT(relative_diff(a.view(), b.view()), 1e-13) << "variant " << v;
  }
}

TEST(TrinvBlocked, WorksWithLeadingDimensionLargerThanN) {
  Rng rng(4);
  const index_t n = 50, ld = 77;
  Matrix l(n, n, ld);
  fill_lower_triangular(l.view(), rng);
  Matrix l0(n, n);
  copy_matrix(l.view(), l0.view());
  ExecContext ctx(backend_instance("blocked"));
  trinv_blocked(ctx, 3, n, l.data(), ld, 16);
  Matrix result(n, n);
  copy_matrix(l.view(), result.view());
  EXPECT_LT(trinv_residual(result, l0), 1e-10);
}

TEST(TrinvFlops, MatchesPaperFormula) {
  // n(n+1)(n+2)/3; the paper's efficiency divides this by 2*2*ticks.
  EXPECT_DOUBLE_EQ(trinv_flops(1), 2.0);
  EXPECT_DOUBLE_EQ(trinv_flops(10), 440.0);
  const double n = 1000.0;
  EXPECT_NEAR(trinv_flops(1000),
              2.0 * (n * n * n / 6 + n * n / 2 + n / 3), 1e-6);
}

// ------------------------------------------------------------- sylv unb

TEST(SylvUnblocked, SolvesSquareSystem) {
  Rng rng(11);
  for (index_t n : {1, 2, 9, 40}) {
    Matrix l(n, n), u(n, n), x(n, n);
    fill_lower_triangular(l.view(), rng);
    fill_upper_triangular(u.view(), rng);
    fill_uniform(x.view(), rng);
    Matrix c(n, n);
    copy_matrix(x.view(), c.view());
    sylv_unblocked(n, n, l.data(), n, u.data(), n, x.data(), n);
    EXPECT_LT(sylv_residual(l, u, x, c), 1e-12) << "n=" << n;
  }
}

TEST(SylvUnblocked, SolvesRectangularSystems) {
  Rng rng(12);
  const struct { index_t m, n; } cases[] = {{5, 13}, {13, 5}, {1, 8}, {8, 1}};
  for (const auto& cs : cases) {
    Matrix l(cs.m, cs.m), u(cs.n, cs.n), x(cs.m, cs.n);
    fill_lower_triangular(l.view(), rng);
    fill_upper_triangular(u.view(), rng);
    fill_uniform(x.view(), rng);
    Matrix c(cs.m, cs.n);
    copy_matrix(x.view(), c.view());
    sylv_unblocked(cs.m, cs.n, l.data(), cs.m, u.data(), cs.n, x.data(),
                   cs.m);
    EXPECT_LT(sylv_residual(l, u, x, c), 1e-12)
        << "m=" << cs.m << " n=" << cs.n;
  }
}

TEST(SylvUnblocked, SingularOperatorThrows) {
  // l_00 + u_00 == 0 makes the Sylvester operator singular.
  Matrix l(1, 1), u(1, 1), x(1, 1);
  l(0, 0) = 1.0;
  u(0, 0) = -1.0;
  x(0, 0) = 1.0;
  EXPECT_THROW(sylv_unblocked(1, 1, l.data(), 1, u.data(), 1, x.data(), 1),
               numerical_error);
}

TEST(SylvUnblocked, EmptyProblemIsNoop) {
  double dummy = 0.0;
  EXPECT_NO_THROW(
      sylv_unblocked(0, 0, &dummy, 1, &dummy, 1, &dummy, 1));
  EXPECT_NO_THROW(
      sylv_unblocked(0, 5, &dummy, 1, &dummy, 5, &dummy, 1));
}

// ----------------------------------------------------------- sylv sched

TEST(SylvSchedule, SixteenDistinctSchedules) {
  // Every variant decodes to a unique (order, push_row, push_col) triple.
  std::set<std::tuple<int, bool, bool>> seen;
  for (int v = 1; v <= kSylvVariantCount; ++v) {
    const SylvSchedule s = sylv_schedule(v);
    seen.insert({static_cast<int>(s.order), s.push_row, s.push_col});
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(SylvSchedule, Variant1IsFullyLazyDiagonal) {
  const SylvSchedule s = sylv_schedule(1);
  EXPECT_FALSE(s.push_row);
  EXPECT_FALSE(s.push_col);
  EXPECT_EQ(s.order, SylvSchedule::Order::DiagCol);
}

TEST(SylvSchedule, Variant16IsFullyEagerRowMajor) {
  const SylvSchedule s = sylv_schedule(16);
  EXPECT_TRUE(s.push_row);
  EXPECT_TRUE(s.push_col);
  EXPECT_EQ(s.order, SylvSchedule::Order::RowMajor);
}

TEST(SylvSchedule, RejectsOutOfRangeVariants) {
  EXPECT_THROW((void)sylv_schedule(0), invalid_argument_error);
  EXPECT_THROW((void)sylv_schedule(17), invalid_argument_error);
}

// -------------------------------------------------------- sylv blocked

class SylvBlockedTest
    : public ::testing::TestWithParam<std::tuple<int, index_t>> {};

TEST_P(SylvBlockedTest, AllVariantsSolveSquareAndRectangular) {
  const auto [variant, blocksize] = GetParam();
  ExecContext ctx(backend_instance("blocked"));
  Rng rng(variant * 31 + blocksize);
  const struct { index_t m, n; } cases[] = {{48, 48}, {30, 70}, {70, 30}};
  for (const auto& cs : cases) {
    Matrix l(cs.m, cs.m), u(cs.n, cs.n), x(cs.m, cs.n);
    fill_lower_triangular(l.view(), rng);
    fill_upper_triangular(u.view(), rng);
    fill_uniform(x.view(), rng);
    Matrix c(cs.m, cs.n);
    copy_matrix(x.view(), c.view());
    sylv_blocked(ctx, variant, cs.m, cs.n, l.data(), cs.m, u.data(), cs.n,
                 x.data(), cs.m, blocksize);
    EXPECT_LT(sylv_residual(l, u, x, c), 1e-10)
        << "variant " << variant << " b=" << blocksize << " m=" << cs.m
        << " n=" << cs.n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SylvBlockedTest,
    ::testing::Combine(::testing::Range(1, kSylvVariantCount + 1),
                       ::testing::Values<index_t>(8, 17, 48)));

TEST(SylvBlocked, AllVariantsAgreeWithEachOther) {
  // Mathematical equivalence: every schedule computes the same X.
  Rng rng(55);
  const index_t m = 56, n = 40;
  Matrix l(m, m), u(n, n), c0(m, n);
  fill_lower_triangular(l.view(), rng);
  fill_upper_triangular(u.view(), rng);
  fill_uniform(c0.view(), rng);
  ExecContext ctx(backend_instance("naive"));

  Matrix ref(m, n);
  copy_matrix(c0.view(), ref.view());
  sylv_blocked(ctx, 1, m, n, l.data(), m, u.data(), n, ref.data(), m, 16);

  for (int v = 2; v <= kSylvVariantCount; ++v) {
    Matrix x(m, n);
    copy_matrix(c0.view(), x.view());
    sylv_blocked(ctx, v, m, n, l.data(), m, u.data(), n, x.data(), m, 16);
    EXPECT_LT(relative_diff(x.view(), ref.view()), 1e-10) << "variant " << v;
  }
}

TEST(SylvBlocked, BlocksizeLargerThanProblemFallsBackToUnblocked) {
  Rng rng(8);
  const index_t m = 10, n = 12;
  Matrix l(m, m), u(n, n), x(m, n);
  fill_lower_triangular(l.view(), rng);
  fill_upper_triangular(u.view(), rng);
  fill_uniform(x.view(), rng);
  Matrix c(m, n);
  copy_matrix(x.view(), c.view());
  ExecContext ctx(backend_instance("naive"));
  sylv_blocked(ctx, 5, m, n, l.data(), m, u.data(), n, x.data(), m, 100);
  EXPECT_LT(sylv_residual(l, u, x, c), 1e-12);
}

TEST(SylvFlops, MatchesPaperFormula) {
  // m n (m+n+2); for m=n the paper's efficiency is (n^3+n^2)/(2 ticks)
  // at 4 flops/cycle, i.e. flops = 2(n^3 + n^2).
  EXPECT_DOUBLE_EQ(sylv_flops(10, 10), 2.0 * (1000.0 + 100.0));
  EXPECT_DOUBLE_EQ(sylv_flops(2, 3), 2.0 * 3.0 * 7.0);
}

// ------------------------------------------------------------- chol unb

class CholUnblockedTest : public ::testing::TestWithParam<int> {};

TEST_P(CholUnblockedTest, FactorsAcrossSizes) {
  const int variant = GetParam();
  Rng rng(300 + variant);
  for (index_t n : {1, 2, 3, 8, 17, 64, 129}) {
    Matrix a(n, n, n + 2);
    fill_spd(a.view(), rng);
    Matrix a0(n, n);
    copy_matrix(a.view(), a0.view());
    chol_unblocked(variant, n, a.data(), a.ld());
    Matrix l(n, n);
    copy_matrix(a.view(), l.view());
    EXPECT_LT(chol_residual(l, a0), 1e-12)
        << "variant " << variant << " n=" << n;
  }
}

TEST_P(CholUnblockedTest, ZeroSizeIsNoop) {
  double sentinel = 42.0;
  chol_unblocked(GetParam(), 0, &sentinel, 1);
  EXPECT_EQ(sentinel, 42.0);
}

INSTANTIATE_TEST_SUITE_P(Variants, CholUnblockedTest,
                         ::testing::Values(1, 2, 3));

TEST(CholUnblocked, AllVariantsProduceIdenticalResults) {
  Rng rng(17);
  const index_t n = 40;
  Matrix a0(n, n);
  fill_spd(a0.view(), rng);
  Matrix ref(n, n);
  copy_matrix(a0.view(), ref.view());
  chol_unblocked(1, n, ref.data(), n);
  for (int v = 2; v <= kCholVariantCount; ++v) {
    Matrix a(n, n);
    copy_matrix(a0.view(), a.view());
    chol_unblocked(v, n, a.data(), n);
    EXPECT_LT(relative_diff(a.view(), ref.view()), 1e-12) << "variant " << v;
  }
}

TEST(CholUnblocked, NotPositiveDefiniteThrows) {
  // A diagonal with a non-positive entry cannot be SPD.
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  a(2, 2) = 1.0;
  for (int v = 1; v <= kCholVariantCount; ++v) {
    Matrix c(3, 3);
    copy_matrix(a.view(), c.view());
    EXPECT_THROW(chol_unblocked(v, 3, c.data(), 3), numerical_error)
        << "variant " << v;
  }
}

TEST(CholUnblocked, RejectsBadArguments) {
  double x = 1.0;
  EXPECT_THROW(chol_unblocked(0, 1, &x, 1), invalid_argument_error);
  EXPECT_THROW(chol_unblocked(4, 1, &x, 1), invalid_argument_error);
  EXPECT_THROW(chol_unblocked(1, 4, &x, 2), invalid_argument_error);
}

// ---------------------------------------------------------- chol blocked

class CholBlockedTest
    : public ::testing::TestWithParam<std::tuple<int, index_t, const char*>> {
};

TEST_P(CholBlockedTest, FactorsForAllBlocksizes) {
  const auto [variant, blocksize, bname] = GetParam();
  ExecContext ctx(backend_instance(bname));
  Rng rng(variant * 2000 + blocksize);
  for (index_t n : {1, 13, 96, 150}) {
    Matrix a(n, n);
    fill_spd(a.view(), rng);
    Matrix a0(n, n);
    copy_matrix(a.view(), a0.view());
    chol_blocked(ctx, variant, n, a.data(), n > 0 ? n : 1, blocksize);
    EXPECT_LT(chol_residual(a, a0), 1e-11)
        << "variant " << variant << " b=" << blocksize << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsBlocksizesBackends, CholBlockedTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<index_t>(1, 7, 32, 96, 200),
                       ::testing::Values("naive", "blocked")));

TEST(CholBlocked, AgreesWithUnblockedAtBlocksizeOne) {
  // Blocked with b = 1 performs the same mathematical steps as unblocked
  // (backend kernels may reorder the arithmetic, so compare to a tight
  // tolerance rather than bit-exactly).
  Rng rng(23);
  const index_t n = 24;
  Matrix a0(n, n);
  fill_spd(a0.view(), rng);
  ExecContext ctx(backend_instance("naive"));
  for (int v = 1; v <= kCholVariantCount; ++v) {
    Matrix a(n, n), b(n, n);
    copy_matrix(a0.view(), a.view());
    copy_matrix(a0.view(), b.view());
    chol_blocked(ctx, v, n, a.data(), n, 1);
    chol_unblocked(v, n, b.data(), n);
    EXPECT_LT(relative_diff(a.view(), b.view()), 1e-13) << "variant " << v;
  }
}

TEST(CholBlocked, WorksWithLeadingDimensionLargerThanN) {
  Rng rng(24);
  const index_t n = 50, ld = 77;
  Matrix a(n, n, ld);
  fill_spd(a.view(), rng);
  Matrix a0(n, n);
  copy_matrix(a.view(), a0.view());
  ExecContext ctx(backend_instance("blocked"));
  chol_blocked(ctx, 2, n, a.data(), ld, 16);
  Matrix result(n, n);
  copy_matrix(a.view(), result.view());
  EXPECT_LT(chol_residual(result, a0), 1e-11);
}

TEST(CholFlops, MatchesClosedForm) {
  // n(n+1)(2n+1)/6 = n^3/3 + n^2/2 + n/6 (mult + add counted separately).
  EXPECT_DOUBLE_EQ(chol_flops(1), 1.0);
  EXPECT_DOUBLE_EQ(chol_flops(10), 385.0);
  const double n = 1000.0;
  EXPECT_NEAR(chol_flops(1000), n * n * n / 3 + n * n / 2 + n / 6, 1e-6);
}

}  // namespace
}  // namespace dlap
