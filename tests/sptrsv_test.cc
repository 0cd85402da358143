// Unit + property tests for the sparse triangular solvers.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.h"
#include "precond/ilu.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg {
namespace {

TEST(Sptrsv, LowerSerialSmall) {
  // L = [1 0; 0.5 1] stored strictly lower (unit diagonal implicit),
  // b = [2, 9] -> x = [2, 8].
  const Csr<double> l = csr_from_triplets<double>(2, 2, {{1, 0, 0.5}});
  std::vector<double> b{2.0, 9.0}, x(2);
  sptrsv_lower_serial(l, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 8.0);
}

TEST(Sptrsv, UpperSerialSmall) {
  // U = [2 1; 0 4], b = [4, 8] -> x = [1, 2].
  const Csr<double> u = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 1, 4.0}});
  std::vector<double> b{4.0, 8.0}, x(2);
  sptrsv_upper_serial(u, std::span<const double>(b), std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Sptrsv, ZeroDiagonalThrows) {
  // L's diagonal is implicit, so a stored one (zero or not) is malformed.
  const Csr<double> l =
      csr_from_triplets<double>(2, 2, {{0, 0, 0.0}, {1, 1, 1.0}});
  std::vector<double> b{1.0, 1.0}, x(2);
  EXPECT_THROW(
      sptrsv_lower_serial(l, std::span<const double>(b), std::span<double>(x)),
      Error);
  const Csr<double> u =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {1, 1, 0.0}});
  EXPECT_THROW(
      sptrsv_upper_serial(u, std::span<const double>(b), std::span<double>(x)),
      Error);
}

TEST(Sptrsv, InPlaceAliasingWorksForSerial) {
  // L = [1; 1 1; 0 0.5 1] with the unit diagonal implicit.
  const Csr<double> l =
      csr_from_triplets<double>(3, 3, {{1, 0, 1.0}, {2, 1, 0.5}});
  std::vector<double> bx{1.0, 2.0, 1.5};
  sptrsv_lower_serial(l, std::span<const double>(bx), std::span<double>(bx));
  EXPECT_DOUBLE_EQ(bx[0], 1.0);
  EXPECT_DOUBLE_EQ(bx[1], 1.0);
  EXPECT_DOUBLE_EQ(bx[2], 1.0);
}

/// Residual check ||(L + I) x - b||_inf for a solve with the strictly
/// lower L of split_lu() (unit diagonal implicit).
double lower_residual(const Csr<double>& l, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> lx = spmv(l, x);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::abs(lx[i] + x[i] - b[i]));
  return r;
}

class SptrsvPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SptrsvPropertyTest, SerialAndLevelScheduledMatchOnFactors) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Csr<double> a = gen_grid_laplacian(14, 14, 1.5, 0.4, seed);
  const TriangularFactors<double> f = split_lu(ilu0(a));

  std::vector<double> b(static_cast<std::size_t>(a.rows));
  Rng rng(seed * 97 + 1);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  std::vector<double> x_serial(b.size()), x_level(b.size());
  sptrsv_lower_serial(f.l, std::span<const double>(b),
                      std::span<double>(x_serial));
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  sptrsv_lower_levels(f.l, ls, std::span<const double>(b),
                      std::span<double>(x_level));
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(x_serial[i], x_level[i], 1e-13);
  EXPECT_LT(lower_residual(f.l, x_serial, b), 1e-10);

  // Upper side.
  std::vector<double> y_serial(b.size()), y_level(b.size());
  sptrsv_upper_serial(f.u, std::span<const double>(b),
                      std::span<double>(y_serial));
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  sptrsv_upper_levels(f.u, us, std::span<const double>(b),
                      std::span<double>(y_level));
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(y_serial[i], y_level[i], 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptrsvPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sptrsv, FloatInstantiationRoundTrips) {
  const Csr<double> ad = gen_poisson2d(8, 8);
  const Csr<float> a = csr_cast<float>(ad);
  const TriangularFactors<float> f = split_lu(ilu0(a));
  std::vector<float> b(static_cast<std::size_t>(a.rows), 1.0f);
  std::vector<float> y(b.size()), x(b.size());
  sptrsv_lower_serial(f.l, std::span<const float>(b), std::span<float>(y));
  sptrsv_upper_serial(f.u, std::span<const float>(y), std::span<float>(x));
  // Result must be finite and nonzero.
  for (const float v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(std::abs(x[0]), 0.0f);
}

TEST(Sptrsv, SolveAgainstFullLuRecoversInput) {
  // With complete LU (ILU with huge K), L(Ux) = b solves A x = b exactly.
  const Csr<double> a = gen_varcoef2d(7, 7, 1.0, 11);
  const TriangularFactors<double> f = split_lu(iluk(a, 100));
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = std::cos(static_cast<double>(i));
  const std::vector<double> b = spmv(a, x_true);
  std::vector<double> y(b.size()), x(b.size());
  sptrsv_lower_serial(f.l, std::span<const double>(b), std::span<double>(y));
  sptrsv_upper_serial(f.u, std::span<const double>(y), std::span<double>(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

}  // namespace
}  // namespace spcg
