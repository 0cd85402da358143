// Unit + property tests for ILU(0), symbolic/numeric ILU(K), and the
// preconditioner wrappers.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "sparse/norms.h"
#include "sparse/ops.h"

namespace spcg {
namespace {

/// Dense reconstruction of L*U from a combined factor, for small checks.
std::vector<double> dense_lu_product(const IluResult<double>& r) {
  const TriangularFactors<double> f = split_lu(r);
  const index_t n = f.l.rows;
  std::vector<double> out(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  auto add_row_of_u = [&](index_t i, index_t k, double lik) {
    for (index_t q = f.u.rowptr[k]; q < f.u.rowptr[k + 1]; ++q) {
      const index_t j = f.u.colind[static_cast<std::size_t>(q)];
      out[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(j)] +=
          lik * f.u.values[static_cast<std::size_t>(q)];
    }
  };
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = f.l.rowptr[i]; p < f.l.rowptr[i + 1]; ++p)
      add_row_of_u(i, f.l.colind[static_cast<std::size_t>(p)],
                   f.l.values[static_cast<std::size_t>(p)]);
    add_row_of_u(i, i, 1.0);  // L's implicit unit diagonal
  }
  return out;
}

TEST(Ilu0, ExactForTridiagonal) {
  // A tridiagonal matrix has no fill, so ILU(0) == exact LU: L*U == A.
  const index_t n = 12;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 3.0});
    if (i > 0) ts.push_back({i, i - 1, -1.0});
    if (i + 1 < n) ts.push_back({i, i + 1, -1.0});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IluResult<double> r = ilu0(a);
  EXPECT_FALSE(r.breakdown);
  const std::vector<double> lu = dense_lu_product(r);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(lu[static_cast<std::size_t>(i * n + j)], a.at(i, j), 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Ilu0, MatchesOnPatternForPoisson) {
  // ILU(0) residual A - L*U must vanish exactly ON the pattern of A.
  const Csr<double> a = gen_poisson2d(8, 8);
  const IluResult<double> r = ilu0(a);
  const std::vector<double> lu = dense_lu_product(r);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      EXPECT_NEAR(lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
                     static_cast<std::size_t>(j)],
                  a.values[static_cast<std::size_t>(p)], 1e-10);
    }
  }
}

TEST(Ilu0, ZeroPivotThrowsWhenBoostDisabled) {
  // [0 1; 1 0] has a zero pivot immediately.
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 0.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 0.0}});
  IluOptions opt;
  opt.boost_zero_pivots = false;
  EXPECT_THROW(ilu0(a, opt), Error);
  // With boosting it survives and flags breakdown.
  const IluResult<double> r = ilu0(a);
  EXPECT_TRUE(r.breakdown);
}

TEST(Ilu0, MissingDiagonalThrows) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(ilu0(a), Error);
}

TEST(Ilu0, CountsEliminationOps) {
  const Csr<double> a = gen_poisson2d(6, 6);
  const IluResult<double> r = ilu0(a);
  EXPECT_GT(r.elimination_ops, 0u);
  EXPECT_EQ(r.fill_nnz, 0);
}

TEST(IlukSymbolic, Level0EqualsInputPattern) {
  const Csr<double> a = gen_poisson2d(7, 7);
  const IlukSymbolic sym = iluk_symbolic(a, 0);
  EXPECT_EQ(sym.pattern.rowptr, a.rowptr);
  EXPECT_EQ(sym.pattern.colind, a.colind);
  for (const index_t lev : sym.levels) EXPECT_EQ(lev, 0);
}

TEST(IlukSymbolic, FillGrowsMonotonicallyWithK) {
  const Csr<double> a = gen_poisson2d(10, 10);
  index_t prev = a.nnz();
  for (const index_t k : {1, 2, 3, 5, 8}) {
    const IlukSymbolic sym = iluk_symbolic(a, k);
    sym.pattern.validate();
    EXPECT_GE(sym.pattern.nnz(), prev) << "k=" << k;
    prev = sym.pattern.nnz();
    // Levels are within bounds and original entries keep level 0.
    for (std::size_t p = 0; p < sym.levels.size(); ++p)
      EXPECT_LE(sym.levels[p], k);
  }
}

TEST(IlukSymbolic, TridiagonalNeverFills) {
  // Tridiagonal elimination creates no fill at any level.
  const index_t n = 30;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 2.0});
    if (i > 0) ts.push_back({i, i - 1, -1.0});
    if (i + 1 < n) ts.push_back({i, i + 1, -1.0});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic sym = iluk_symbolic(a, 40);
  EXPECT_EQ(sym.pattern.nnz(), a.nnz());
}

TEST(IlukSymbolic, GappedBandFillsTheGapAtLevelOne) {
  // Pattern holds distances {0, 1, 3} only. Eliminating (i, i-1) against row
  // i-1 (whose U-part reaches i-1+3 = i+2) creates fill at distance 2 with
  // level 0+0+1 = 1. All level-1 fill stays within distance 4.
  const index_t n = 20;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    for (const index_t d : {1, 3}) {
      if (i + d < n) {
        ts.push_back({i, i + d, -1.0});
        ts.push_back({i + d, i, -1.0});
      }
    }
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic s1 = iluk_symbolic(a, 1);
  EXPECT_GT(s1.pattern.nnz(), a.nnz());
  bool fill_at_distance2 = false;
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = s1.pattern.rowptr[i]; p < s1.pattern.rowptr[i + 1]; ++p) {
      const index_t j = s1.pattern.colind[static_cast<std::size_t>(p)];
      EXPECT_LE(std::abs(i - j), 4);
      if (std::abs(i - j) == 2) fill_at_distance2 = true;
    }
  }
  EXPECT_TRUE(fill_at_distance2);
}

TEST(IlukSymbolic, FullBandNeverFills) {
  // A dense band of half-bandwidth 2 is closed under elimination: LU fill
  // stays inside the band, which is already fully stored -> no new entries.
  const index_t n = 20;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) {
    ts.push_back({i, i, 4.0});
    for (index_t d = 1; d <= 2; ++d) {
      if (i + d < n) {
        ts.push_back({i, i + d, -1.0});
        ts.push_back({i + d, i, -1.0});
      }
    }
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IlukSymbolic s = iluk_symbolic(a, 5);
  EXPECT_EQ(s.pattern.nnz(), a.nnz());
}

TEST(IlukSymbolic, RowCapTruncatesAndReports) {
  const Csr<double> a = gen_poisson2d(12, 12);
  const IlukSymbolic full = iluk_symbolic(a, 10);
  index_t max_row = 0;
  for (index_t i = 0; i < a.rows; ++i)
    max_row = std::max(max_row, full.pattern.rowptr[i + 1] -
                                    full.pattern.rowptr[i]);
  ASSERT_GT(max_row, 6);
  const index_t cap = max_row - 2;
  const IlukSymbolic capped = iluk_symbolic(a, 10, cap);
  EXPECT_GT(capped.truncated_rows, 0);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_LE(capped.pattern.rowptr[i + 1] - capped.pattern.rowptr[i], cap);
  }
  capped.pattern.validate();
}

TEST(Iluk, RowCapMayDropOriginalEntriesWithoutThrowing) {
  // A dense-ish row exceeding the cap: the symbolic phase truncates it and
  // the numeric scatter must tolerate the lost original entries.
  const index_t n = 40;
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < n; ++i) ts.push_back({i, i, 10.0 + i});
  for (index_t j = 1; j < n; ++j) {
    ts.push_back({0, j, -0.1});
    ts.push_back({j, 0, -0.1});
  }
  const Csr<double> a = csr_from_triplets<double>(n, n, std::move(ts));
  const IluResult<double> r = iluk(a, 2, IluOptions{}, /*max_row_fill=*/8);
  EXPECT_LE(r.lu.rowptr[1] - r.lu.rowptr[0], 8);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_GT(r.lu.values[static_cast<std::size_t>(
                  r.diag_pos[static_cast<std::size_t>(i)])],
              0.0);
  }
}

TEST(Iluk, LargeKEqualsExactLuOnSmallMatrix) {
  // For K >= n the factorization is a complete LU: L*U == A everywhere.
  const Csr<double> a = gen_grid_laplacian(5, 5, 1.0, 0.5, 3);
  const IluResult<double> r = iluk(a, 60);
  const std::vector<double> lu = dense_lu_product(r);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      EXPECT_NEAR(lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
                     static_cast<std::size_t>(j)],
                  a.at(i, j), 1e-9);
    }
  }
  EXPECT_GT(r.fill_nnz, 0);
}

TEST(Iluk, K0MatchesIlu0) {
  const Csr<double> a = gen_varcoef2d(9, 9, 1.0, 5);
  const IluResult<double> r0 = ilu0(a);
  const IluResult<double> rk = iluk(a, 0);
  ASSERT_EQ(r0.lu.colind, rk.lu.colind);
  for (std::size_t p = 0; p < r0.lu.values.size(); ++p)
    EXPECT_NEAR(r0.lu.values[p], rk.lu.values[p], 1e-14);
}

TEST(Iluk, PreconditionerQualityImprovesWithK) {
  // ||A - L*U||_F should shrink as K grows.
  const Csr<double> a = gen_poisson2d(9, 9);
  double prev = std::numeric_limits<double>::infinity();
  for (const index_t k : {0, 1, 2, 4, 8}) {
    const IluResult<double> r = iluk(a, k);
    const std::vector<double> lu = dense_lu_product(r);
    double err = 0.0;
    for (index_t i = 0; i < a.rows; ++i) {
      for (index_t j = 0; j < a.cols; ++j) {
        const double d =
            lu[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.rows) +
               static_cast<std::size_t>(j)] -
            a.at(i, j);
        err += d * d;
      }
    }
    err = std::sqrt(err);
    EXPECT_LE(err, prev * (1.0 + 1e-12)) << "k=" << k;
    prev = err;
  }
}

TEST(Iluk, FillDeepensTheSchedule) {
  // The paper's ILU(K) premise: fill-in adds dependences, so the factor's
  // wavefront count grows (weakly) with K — which is why sparsification has
  // more to remove for ILU(K) than for ILU(0).
  for (const Csr<double>& a :
       {gen_poisson2d(16, 16), gen_varcoef2d(14, 14, 1.5, 5),
        gen_kernel2d(16, 16, 2.5, 0.8, true, 7)}) {
    index_t prev = 0;
    for (const index_t k : {0, 1, 2, 4}) {
      const IluResult<double> f = iluk(a, k);
      const index_t wf = count_wavefronts(f.lu);
      EXPECT_GE(wf, prev) << "k=" << k;
      prev = wf;
    }
  }
}

TEST(SplitLu, ShapesAndUnitDiagonal) {
  const Csr<double> a = gen_poisson2d(6, 6);
  const IluResult<double> r = ilu0(a);
  const TriangularFactors<double> f = split_lu(r);
  f.l.validate();
  f.u.validate();
  // L's unit diagonal is implicit: the split stores exactly LU's entries.
  EXPECT_EQ(f.l.nnz() + f.u.nnz(), r.lu.nnz());
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_EQ(f.l.find(i, i), -1);
    // U's diagonal opens its row.
    ASSERT_LT(f.u.rowptr[i], f.u.rowptr[i + 1]);
    EXPECT_EQ(f.u.colind[static_cast<std::size_t>(f.u.rowptr[i])], i);
    // Strict triangularity.
    for (index_t p = f.l.rowptr[i]; p < f.l.rowptr[i + 1]; ++p)
      EXPECT_LT(f.l.colind[static_cast<std::size_t>(p)], i);
    for (index_t p = f.u.rowptr[i]; p < f.u.rowptr[i + 1]; ++p)
      EXPECT_GE(f.u.colind[static_cast<std::size_t>(p)], i);
  }
}

TEST(SplitLu, MatchesTriangleExtraction) {
  // The single counted pass must reproduce the triangle extraction exactly:
  // L = strict lower part (unit diagonal implicit), U = diagonal + strict
  // upper part, with ILU(K) fill included.
  for (const index_t k : {index_t{0}, index_t{2}}) {
    const IluResult<double> r = iluk(gen_grid_laplacian(9, 7, 2.0, 0.3, 5), k);
    const TriangularFactors<double> f = split_lu(r);
    const Csr<double> strict =
        extract_triangle(r.lu, Triangle::kLower, DiagonalPolicy::kExclude);
    const Csr<double> upper =
        extract_triangle(r.lu, Triangle::kUpper, DiagonalPolicy::kInclude);
    EXPECT_EQ(f.l.rowptr, strict.rowptr) << "K=" << k;
    EXPECT_EQ(f.l.colind, strict.colind) << "K=" << k;
    EXPECT_EQ(f.l.values, strict.values) << "K=" << k;
    EXPECT_EQ(f.u.rowptr, upper.rowptr) << "K=" << k;
    EXPECT_EQ(f.u.colind, upper.colind) << "K=" << k;
    EXPECT_EQ(f.u.values, upper.values) << "K=" << k;
    EXPECT_EQ(f.l.colind.capacity(), f.l.colind.size()) << "K=" << k;
  }
}

TEST(Preconditioner, JacobiApply) {
  const Csr<double> a = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {1, 1, 4.0}});
  JacobiPreconditioner<double> m(a);
  std::vector<double> r{2.0, 2.0}, z(2);
  m.apply(r, std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 0.5);
}

TEST(Preconditioner, JacobiRejectsZeroDiagonal) {
  const Csr<double> a =
      csr_from_triplets<double>(2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(JacobiPreconditioner<double>{a}, Error);
}

TEST(Preconditioner, IdentityCopies) {
  IdentityPreconditioner<double> m(3);
  std::vector<double> r{1, 2, 3}, z(3);
  m.apply(r, std::span<double>(z));
  EXPECT_EQ(z, r);
}

TEST(Preconditioner, IluApplySolvesLuSystem) {
  // With ILU(huge K) == exact LU, apply() must invert A exactly.
  const Csr<double> a = gen_grid_laplacian(6, 6, 1.0, 0.5, 9);
  IluPreconditioner<double> m(iluk(a, 100), TrsvExec::kSerial);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = 0.1 * static_cast<double>(i) - 1.0;
  const std::vector<double> r = spmv(a, x_true);
  std::vector<double> z(x_true.size());
  m.apply(r, std::span<double>(z));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    EXPECT_NEAR(z[i], x_true[i], 1e-8);
}

TEST(Preconditioner, SerialAndLevelScheduledAgree) {
  const Csr<double> a = gen_mesh_laplacian(10, 10, 0.3, 0.05, 21);
  IluPreconditioner<double> serial(ilu0(a), TrsvExec::kSerial);
  IluPreconditioner<double> levels(ilu0(a), TrsvExec::kLevelScheduled);
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = std::sin(static_cast<double>(i));
  std::vector<double> z1(r.size()), z2(r.size());
  serial.apply(r, std::span<double>(z1));
  levels.apply(r, std::span<double>(z2));
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-13);
}

TEST(Preconditioner, Ic0AcceptsSpdRejectsIndefinite) {
  const Csr<double> spd = gen_poisson2d(5, 5);
  EXPECT_NO_THROW(make_ic0(spd));
  // Indefinite symmetric matrix -> negative pivot somewhere.
  const Csr<double> indef = csr_from_triplets<double>(
      2, 2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, 3.0}, {1, 1, 1.0}});
  EXPECT_THROW(make_ic0(indef), Error);
}

// Property sweep: ILU across generator families never breaks down on the
// diagonally dominant constructions and produces positive U pivots.
class IluPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IluPropertyTest, PositivePivotsOnDominantMatrices) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Csr<double>& a :
       {gen_grid_laplacian(12, 12, 2.0, 0.3, seed),
        gen_varcoef2d(12, 12, 1.5, seed),
        gen_banded(150, 6, 0.4, false, seed)}) {
    IluOptions strict;
    strict.boost_zero_pivots = false;
    const IluResult<double> r = ilu0(a, strict);
    for (index_t i = 0; i < a.rows; ++i) {
      EXPECT_GT(r.lu.values[static_cast<std::size_t>(
                    r.diag_pos[static_cast<std::size_t>(i)])],
                0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IluPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace spcg
