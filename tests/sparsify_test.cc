// Unit + property tests for wavefront-aware sparsification (Algorithm 2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "core/sparsify.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "sparse/norms.h"
#include "sparse/ops.h"

namespace spcg {
namespace {

TEST(SparsifyRatio, SplitsExactlyIntoAhatPlusS) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.0, 0.3, 42);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  s.a_hat.validate();
  s.s.validate();
  // A = Â + S entrywise (the split is a partition of A's entries).
  const Csr<double> sum = add(s.a_hat, s.s);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      EXPECT_DOUBLE_EQ(sum.at(i, j), a.values[static_cast<std::size_t>(p)]);
    }
  }
  EXPECT_EQ(s.a_hat.nnz() + s.s.nnz(), a.nnz());
  EXPECT_EQ(s.s.nnz(), s.dropped);
}

TEST(SparsifyRatio, RespectsTargetCount) {
  const Csr<double> a = gen_grid_laplacian(20, 20, 2.0, 0.3, 7);
  for (const double t : {1.0, 5.0, 10.0, 25.0}) {
    const SparsifySplit<double> s = sparsify_by_ratio(a, t);
    const auto target = static_cast<index_t>(
        std::llround(t / 100.0 * static_cast<double>(a.nnz())));
    EXPECT_LE(s.dropped, target) << "t=" << t;
    // Pairs are size 2, so we can be at most 2 short (1 for the last pair).
    EXPECT_GE(s.dropped, std::max<index_t>(0, target - 2)) << "t=" << t;
  }
}

TEST(SparsifyRatio, PreservesDiagonal) {
  const Csr<double> a = gen_varcoef2d(14, 14, 2.0, 5);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 30.0);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_NE(s.a_hat.find(i, i), -1) << "diagonal dropped at row " << i;
    EXPECT_EQ(s.s.find(i, i), -1);
  }
}

TEST(SparsifyRatio, PreservesSymmetry) {
  const Csr<double> a = gen_mesh_laplacian(12, 12, 0.4, 0.05, 9);
  ASSERT_TRUE(is_symmetric(a));
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  EXPECT_TRUE(is_symmetric(s.a_hat));
  EXPECT_TRUE(is_symmetric(s.s));
}

TEST(SparsifyRatio, DropsSmallestMagnitudesFirst) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.5, 0.3, 11);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
  // max |dropped| <= min |kept off-diagonal|.
  double max_dropped = 0.0;
  for (const double v : s.s.values) max_dropped = std::max(max_dropped, std::abs(v));
  double min_kept = std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < s.a_hat.rows; ++i) {
    const auto cols_i = s.a_hat.row_cols(i);
    const auto vals_i = s.a_hat.row_vals(i);
    for (std::size_t p = 0; p < cols_i.size(); ++p) {
      if (cols_i[p] != i)
        min_kept = std::min(min_kept, std::abs(vals_i[p]));
    }
  }
  EXPECT_LE(max_dropped, min_kept);
}

TEST(SparsifyRatio, ZeroRatioDropsNothing) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const SparsifySplit<double> s = sparsify_by_ratio(a, 0.0);
  EXPECT_EQ(s.dropped, 0);
  EXPECT_EQ(s.a_hat.nnz(), a.nnz());
  EXPECT_EQ(s.s.nnz(), 0);
}

TEST(SparsifyRatio, DeterministicOnTies) {
  // Poisson has all off-diagonals equal: the tie-break must be stable.
  const Csr<double> a = gen_poisson2d(10, 10);
  const SparsifySplit<double> s1 = sparsify_by_ratio(a, 10.0);
  const SparsifySplit<double> s2 = sparsify_by_ratio(a, 10.0);
  EXPECT_EQ(s1.a_hat.colind, s2.a_hat.colind);
  EXPECT_EQ(s1.s.colind, s2.s.colind);
}

TEST(Indicator, DiagonalProxyMatchesHandComputation) {
  // Â = diag(2, 5) with off-diagonal 1; S holds a single pair of 0.1.
  const Csr<double> a_hat = csr_from_triplets<double>(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 5.0}});
  const Csr<double> s = csr_from_triplets<double>(
      2, 2, {{0, 1, 0.1}, {1, 0, 0.1}});
  const ConvergenceIndicator ind = convergence_indicator(a_hat, s);
  // ||Â||_inf = 6, min diag = 2 -> kappa = 3; ||Â^{-1}|| = 3/6 = 0.5.
  EXPECT_NEAR(ind.inv_norm, 0.5, 1e-12);
  EXPECT_NEAR(ind.s_norm, 0.1, 1e-12);
  EXPECT_NEAR(ind.product, 0.05, 1e-12);
}

TEST(Indicator, NonPositiveDiagonalIsUnsafe) {
  const Csr<double> a_hat = csr_from_triplets<double>(
      2, 2, {{0, 0, -1.0}, {1, 1, 1.0}});
  const Csr<double> s = csr_from_triplets<double>(2, 2, {{0, 1, 0.5}});
  const ConvergenceIndicator ind = convergence_indicator(a_hat, s);
  EXPECT_TRUE(std::isinf(ind.product));
}

TEST(Indicator, LanczosEstimatorTighterThanProxyOnWellConditioned) {
  const Csr<double> a = gen_grid_laplacian(12, 12, 1.0, 1.0, 3);
  const SparsifySplit<double> split = sparsify_by_ratio(a, 5.0);
  const ConvergenceIndicator proxy =
      convergence_indicator(split.a_hat, split.s,
                            ConditionEstimator::kDiagonalProxy);
  const ConvergenceIndicator exact = convergence_indicator(
      split.a_hat, split.s, ConditionEstimator::kLanczos, 80);
  EXPECT_GT(proxy.product, 0.0);
  EXPECT_GT(exact.product, 0.0);
  // For this diagonally dominant family 1/min_diag >= 1/lambda_min is not
  // guaranteed in general, but both must be finite and of the same scale.
  EXPECT_LT(std::abs(std::log10(proxy.product / exact.product)), 2.0);
}

TEST(Algorithm2, ReturnsAValidDecision) {
  const Csr<double> a = gen_grid_laplacian(24, 24, 2.2, 0.3, 77);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  EXPECT_GT(d.wavefronts_original, 0);
  EXPECT_LE(d.wavefronts_chosen, d.wavefronts_original);
  EXPECT_FALSE(d.steps.empty());
  d.chosen.a_hat.validate();
  // Chosen ratio must be one of the candidates.
  EXPECT_TRUE(d.chosen.ratio_percent == 10.0 || d.chosen.ratio_percent == 5.0 ||
              d.chosen.ratio_percent == 1.0);
}

TEST(Algorithm2, AcceptsAggressiveRatioWhenReductionIsLarge) {
  // Weak chain: the entire dependence chain is carried by tiny entries, so a
  // 10% drop collapses the wavefronts and passes both tests immediately.
  const Csr<double> a = gen_chain_with_skips(600, 4, 1e-5, 1.0, 13);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kWavefrontAccepted);
  // One of the aggressive ratios wins on the wavefront test.
  EXPECT_GE(d.chosen.ratio_percent, 5.0);
  EXPECT_GT(d.reduction_percent, 50.0);
}

TEST(Algorithm2, FallsBackToSmallestRatioWithoutReduction) {
  // Poisson: dropping equal-magnitude entries barely changes the wavefront
  // count, so Algorithm 2 should land on the most conservative ratio.
  const Csr<double> a = gen_poisson2d(20, 20);
  SparsifyOptions opt;
  opt.omega_percent = 60.0;  // unreachable reduction
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kSmallestRatioFallback);
  EXPECT_DOUBLE_EQ(d.chosen.ratio_percent, 1.0);
}

TEST(Algorithm2, UnsafeFallbackPicksMostAggressiveRatio) {
  const Csr<double> a = gen_grid_laplacian(16, 16, 2.0, 0.3, 21);
  SparsifyOptions opt;
  opt.tau = 0.0;  // every candidate fails the convergence check
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kUnsafeFallback);
  EXPECT_DOUBLE_EQ(d.chosen.ratio_percent, 10.0);
  // All steps were evaluated and all failed.
  EXPECT_EQ(d.steps.size(), 3u);
  for (const SparsifyStep& s : d.steps) EXPECT_FALSE(s.convergence_ok);
}

TEST(Algorithm2, StepDiagnosticsAreConsistent) {
  const Csr<double> a = gen_varcoef2d(20, 20, 2.5, 33);
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  for (const SparsifyStep& s : d.steps) {
    EXPECT_GT(s.ratio_percent, 0.0);
    if (s.convergence_ok) {
      EXPECT_GE(s.wavefronts, 1);
      EXPECT_LE(s.wavefronts, d.wavefronts_original);
    }
  }
}

TEST(Algorithm2, CustomRatioListIsHonored) {
  const Csr<double> a = gen_grid_laplacian(14, 14, 2.0, 0.3, 55);
  SparsifyOptions opt;
  opt.ratios = {20.0, 2.0};
  opt.omega_percent = 0.0;  // accept first safe ratio
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a, opt);
  EXPECT_TRUE(d.chosen.ratio_percent == 20.0 || d.chosen.ratio_percent == 2.0);
}

TEST(Algorithm2, AlgorithmLine10DenominatorVariant) {
  // The Alg.-2-literal denominator (w_Â) yields a >= reduction value than
  // Eq. 7's (w_A); both must pick a valid candidate.
  const Csr<double> a = gen_chain_with_skips(500, 4, 1e-5, 1.0, 17);
  SparsifyOptions eq7;
  SparsifyOptions alg2;
  alg2.denominator = WavefrontDenominator::kSparsified;
  const auto d7 = wavefront_aware_sparsify(a, eq7);
  const auto d2 = wavefront_aware_sparsify(a, alg2);
  d7.chosen.a_hat.validate();
  d2.chosen.a_hat.validate();
}

TEST(SparsifyRatio, PreservesDiagonalDominance) {
  // Removing off-diagonal mass can only strengthen row dominance, so a
  // dominant matrix stays dominant after any sparsification ratio.
  const Csr<double> a = gen_grid_laplacian(14, 14, 2.0, 0.3, 3);
  ASSERT_TRUE(is_diagonally_dominant(a));
  for (const double t : {1.0, 10.0, 30.0}) {
    EXPECT_TRUE(is_diagonally_dominant(sparsify_by_ratio(a, t).a_hat)) << t;
  }
}

// Property sweep: invariants hold across families and ratios.
class SparsifyPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SparsifyPropertyTest, InvariantsAcrossFamilies) {
  const double ratio = GetParam();
  const std::vector<Csr<double>> family{
      gen_poisson2d(14, 14),
      gen_grid_laplacian(14, 14, 2.0, 0.3, 1),
      gen_mesh_laplacian(12, 12, 0.4, 0.05, 2),
      gen_banded(300, 10, 0.3, true, 3),
      gen_economic(300, 8, 0.9, 4),
  };
  for (const Csr<double>& a : family) {
    const SparsifySplit<double> s = sparsify_by_ratio(a, ratio);
    // Partition invariant.
    EXPECT_EQ(s.a_hat.nnz() + s.s.nnz(), a.nnz());
    // Symmetry preserved.
    EXPECT_TRUE(is_symmetric(s.a_hat, 0.0));
    // Diagonal untouched.
    for (index_t i = 0; i < a.rows; ++i)
      EXPECT_DOUBLE_EQ(s.a_hat.at(i, i), a.at(i, i));
    // Wavefronts never increase.
    EXPECT_LE(count_wavefronts(s.a_hat), count_wavefronts(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, SparsifyPropertyTest,
                         ::testing::Values(0.5, 1.0, 5.0, 10.0, 20.0, 50.0));

// --- differential test against the per-ratio implementation ---------------
//
// The oracle is the direct per-ratio form of Algorithm 2: every ratio sorts
// all upper-triangle candidates, finds both mirrors by binary search and
// materializes Â and S, and the convergence proxy and the wavefront count
// run on the materialized Â. The ranked, masked production path must
// reproduce its decisions bit for bit.
namespace oracle {

template <class T>
SparsifySplit<T> ratio_split(const Csr<T>& a, double t_percent) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(t_percent >= 0.0 && t_percent < 100.0);

  struct Candidate {
    T magnitude;
    index_t row, col;  // upper-triangle representative (row < col)
  };
  std::vector<Candidate> candidates;
  for (index_t i = 0; i < a.rows; ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t p = 0; p < cols_i.size(); ++p) {
      if (cols_i[p] > i)
        candidates.push_back({std::abs(vals_i[p]), i, cols_i[p]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.magnitude != y.magnitude) return x.magnitude < y.magnitude;
              if (x.row != y.row) return x.row < y.row;
              return x.col < y.col;
            });

  const auto target = static_cast<index_t>(
      std::llround(t_percent / 100.0 * static_cast<double>(a.nnz())));

  std::vector<char> drop(static_cast<std::size_t>(a.nnz()), 0);
  index_t dropped = 0;
  for (const Candidate& c : candidates) {
    const index_t p_upper = a.find(c.row, c.col);
    const index_t p_lower = a.find(c.col, c.row);
    const index_t cost = (p_lower >= 0) ? 2 : 1;
    if (dropped + cost > target) break;
    drop[static_cast<std::size_t>(p_upper)] = 1;
    if (p_lower >= 0) drop[static_cast<std::size_t>(p_lower)] = 1;
    dropped += cost;
  }

  SparsifySplit<T> out;
  out.ratio_percent = t_percent;
  out.dropped = dropped;
  out.a_hat = Csr<T>(a.rows, a.cols);
  out.s = Csr<T>(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      Csr<T>& dst = drop[static_cast<std::size_t>(p)] ? out.s : out.a_hat;
      dst.colind.push_back(a.colind[static_cast<std::size_t>(p)]);
      dst.values.push_back(a.values[static_cast<std::size_t>(p)]);
    }
    out.a_hat.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.a_hat.colind.size());
    out.s.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.s.colind.size());
  }
  return out;
}

template <class T>
ConvergenceIndicator indicator(const Csr<T>& a_hat,
                                           const Csr<T>& s,
                                           ConditionEstimator estimator,
                                           int lanczos_steps) {
  ConvergenceIndicator ind;
  ind.s_norm = static_cast<double>(norm_inf(s));
  if (estimator == ConditionEstimator::kDiagonalProxy) {
    double min_diag = std::numeric_limits<double>::infinity();
    for (index_t i = 0; i < a_hat.rows; ++i)
      min_diag = std::min(min_diag, static_cast<double>(a_hat.at(i, i)));
    const double a_inf = static_cast<double>(norm_inf(a_hat));
    if (!(min_diag > 0.0) || a_inf == 0.0) {
      ind.inv_norm = std::numeric_limits<double>::infinity();
    } else {
      const double kappa = a_inf / min_diag;
      ind.inv_norm = kappa / a_inf;
    }
  } else {
    const EigEstimate eig = lanczos_extreme_eigenvalues(a_hat, lanczos_steps);
    ind.inv_norm = eig.lambda_min > 0.0
                       ? 1.0 / eig.lambda_min
                       : std::numeric_limits<double>::infinity();
  }
  ind.product = ind.inv_norm * ind.s_norm;
  return ind;
}

template <class T>
index_t level_count(const Csr<T>& a) {
  return level_schedule(a, Triangle::kLower).num_levels();
}

template <class T>
SparsifyDecision<T> decide(const Csr<T>& a,
                                             const SparsifyOptions& opt) {
  SPCG_CHECK_MSG(!opt.ratios.empty(), "need at least one ratio");
  SparsifyDecision<T> out;
  out.wavefronts_original = level_count(a);

  auto finalize = [&](SparsifySplit<T> split, SparsifyOutcome outcome,
                      index_t wavefronts) {
    out.outcome = outcome;
    out.wavefronts_chosen =
        wavefronts >= 0 ? wavefronts : level_count(split.a_hat);
    out.reduction_percent = wavefront_reduction_percent(
        out.wavefronts_original, out.wavefronts_chosen);
    out.chosen = std::move(split);
    return out;
  };

  for (std::size_t idx = 0; idx < opt.ratios.size(); ++idx) {
    const double t = opt.ratios[idx];
    const bool last = (idx + 1 == opt.ratios.size());

    SparsifyStep step;
    step.ratio_percent = t;
    SparsifySplit<T> split = ratio_split(a, t);
    step.dropped = split.dropped;
    step.indicator = indicator(split.a_hat, split.s,
                                           opt.estimator, opt.lanczos_steps);
    step.convergence_ok = !(step.indicator.product > opt.tau);
    if (!step.convergence_ok) {
      out.steps.push_back(step);
      if (last)
        return finalize(ratio_split(a, opt.ratios.front()),
                        SparsifyOutcome::kUnsafeFallback, -1);
      continue;
    }

    step.wavefronts = level_count(split.a_hat);
    const index_t denom =
        opt.denominator == WavefrontDenominator::kOriginal
            ? out.wavefronts_original
            : step.wavefronts;
    step.reduction_percent =
        denom > 0 ? 100.0 *
                        static_cast<double>(out.wavefronts_original -
                                            step.wavefronts) /
                        static_cast<double>(denom)
                  : 0.0;
    step.wavefront_ok = step.reduction_percent >= opt.omega_percent;
    out.steps.push_back(step);

    if (step.wavefront_ok || last)
      return finalize(std::move(split),
                      step.wavefront_ok
                          ? SparsifyOutcome::kWavefrontAccepted
                          : SparsifyOutcome::kSmallestRatioFallback,
                      step.wavefronts);
  }
  return finalize(ratio_split(a, opt.ratios.front()),
                  SparsifyOutcome::kUnsafeFallback, -1);
}

}  // namespace oracle

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_same_csr(const Csr<double>& x, const Csr<double>& y,
                     const std::string& what) {
  EXPECT_EQ(x.rows, y.rows) << what;
  EXPECT_EQ(x.cols, y.cols) << what;
  EXPECT_EQ(x.rowptr, y.rowptr) << what;
  EXPECT_EQ(x.colind, y.colind) << what;
  ASSERT_EQ(x.values.size(), y.values.size()) << what;
  for (std::size_t k = 0; k < x.values.size(); ++k)
    ASSERT_EQ(bits(x.values[k]), bits(y.values[k])) << what << " value " << k;
}

void expect_same_split(const SparsifySplit<double>& x,
                       const SparsifySplit<double>& y,
                       const std::string& what) {
  EXPECT_EQ(bits(x.ratio_percent), bits(y.ratio_percent)) << what;
  EXPECT_EQ(x.dropped, y.dropped) << what;
  expect_same_csr(x.a_hat, y.a_hat, what + " a_hat");
  expect_same_csr(x.s, y.s, what + " s");
}

void expect_same_decision(const SparsifyDecision<double>& x,
                          const SparsifyDecision<double>& y,
                          const std::string& what) {
  EXPECT_EQ(x.outcome, y.outcome) << what;
  EXPECT_EQ(x.wavefronts_original, y.wavefronts_original) << what;
  EXPECT_EQ(x.wavefronts_chosen, y.wavefronts_chosen) << what;
  EXPECT_EQ(bits(x.reduction_percent), bits(y.reduction_percent)) << what;
  ASSERT_EQ(x.steps.size(), y.steps.size()) << what;
  for (std::size_t k = 0; k < x.steps.size(); ++k) {
    const SparsifyStep& a = x.steps[k];
    const SparsifyStep& b = y.steps[k];
    const std::string at = what + " step " + std::to_string(k);
    EXPECT_EQ(bits(a.ratio_percent), bits(b.ratio_percent)) << at;
    EXPECT_EQ(a.dropped, b.dropped) << at;
    EXPECT_EQ(bits(a.indicator.inv_norm), bits(b.indicator.inv_norm)) << at;
    EXPECT_EQ(bits(a.indicator.s_norm), bits(b.indicator.s_norm)) << at;
    EXPECT_EQ(bits(a.indicator.product), bits(b.indicator.product)) << at;
    EXPECT_EQ(a.convergence_ok, b.convergence_ok) << at;
    EXPECT_EQ(a.wavefronts, b.wavefronts) << at;
    EXPECT_EQ(bits(a.reduction_percent), bits(b.reduction_percent)) << at;
    EXPECT_EQ(a.wavefront_ok, b.wavefront_ok) << at;
  }
  expect_same_split(x.chosen, y.chosen, what + " chosen");
}

void expect_matches_oracle(const Csr<double>& a, const SparsifyOptions& opt,
                           const std::string& what) {
  expect_same_decision(wavefront_aware_sparsify(a, opt),
                       oracle::decide(a, opt), what);
}

TEST(SparsifyDifferential, SuiteDecisionsMatchOracle) {
  const SparsifyOptions opt;
  std::vector<int> outcomes(3, 0);
  for (index_t id = 0; id < suite_size(); ++id) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    const SparsifyDecision<double> d = wavefront_aware_sparsify(g.a, opt);
    expect_same_decision(d, oracle::decide(g.a, opt),
                         g.spec.name);
    ++outcomes[static_cast<std::size_t>(d.outcome)];
  }
  // The suite exercises every exit of Algorithm 2.
  for (const int count : outcomes) EXPECT_GT(count, 0);
}

TEST(SparsifyDifferential, FixedRatioSplitsMatchOracle) {
  for (const index_t id : {index_t{0}, index_t{23}, index_t{41}, index_t{77}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    for (const double t : {0.0, 0.5, 1.0, 5.0, 10.0, 37.5, 99.0})
      expect_same_split(sparsify_by_ratio(g.a, t),
                        oracle::ratio_split(g.a, t),
                        g.spec.name + " t=" + std::to_string(t));
  }
}

TEST(SparsifyDifferential, ExactMagnitudeTies) {
  // Every off-diagonal of the Poisson matrix has the same magnitude, so the
  // order is decided by the (row, col) tie-break alone.
  const Csr<double> a = gen_poisson2d(12, 9);
  for (const double t : {1.0, 3.0, 10.0, 40.0})
    expect_same_split(sparsify_by_ratio(a, t), oracle::ratio_split(a, t),
                      "t=" + std::to_string(t));
  SparsifyOptions opt;
  opt.omega_percent = 0.0;
  expect_matches_oracle(a, opt, "poisson omega=0");
  expect_matches_oracle(a, {}, "poisson defaults");
}

TEST(SparsifyDifferential, UnpairedUpperEntryCostsOne) {
  // Structurally unsymmetric: (0,3) and (2,5) have no stored mirror, (4,1)
  // has no upper partner. The unpaired upper entries cost 1, the unpaired
  // lower entry is never a candidate.
  const Csr<double> a = csr_from_triplets<double>(
      6, 6,
      {{0, 0, 4.0}, {0, 1, 0.01}, {1, 0, 0.01}, {0, 3, 0.001},
       {1, 1, 4.0}, {1, 2, 0.3},  {2, 1, 0.3},  {2, 2, 4.0},
       {2, 5, 0.002}, {3, 3, 4.0}, {3, 4, 0.5},  {4, 3, 0.5},
       {4, 1, 0.0005}, {4, 4, 4.0}, {5, 5, 4.0}});
  const SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);  // target 2
  EXPECT_EQ(s.dropped, 2);
  EXPECT_NE(s.s.find(0, 3), -1);
  EXPECT_NE(s.s.find(2, 5), -1);
  EXPECT_NE(s.a_hat.find(4, 1), -1);
  for (const double t : {0.0, 5.0, 10.0, 20.0, 30.0, 60.0})
    expect_same_split(sparsify_by_ratio(a, t), oracle::ratio_split(a, t),
                      "t=" + std::to_string(t));
  SparsifyOptions opt;
  opt.ratios = {30.0, 20.0, 10.0};
  expect_matches_oracle(a, opt, "unsymmetric");

  // Only the upper triangle stored: every candidate costs 1, so a walk
  // takes exactly as many candidates as its target allows.
  const Csr<double> upper = extract_triangle(
      gen_grid_laplacian(12, 10, 2.0, 0.3, 6), Triangle::kUpper,
      DiagonalPolicy::kInclude);
  for (const double t : {1.0, 10.0, 25.0, 40.0, 60.0})
    expect_same_split(sparsify_by_ratio(upper, t),
                      oracle::ratio_split(upper, t),
                      "upper only t=" + std::to_string(t));
}

TEST(SparsifyDifferential, RatioZeroAndListOrder) {
  const Csr<double> a = gen_grid_laplacian(18, 15, 2.0, 0.3, 8);
  for (const std::vector<double>& ratios :
       {std::vector<double>{0.0}, std::vector<double>{10.0, 0.0},
        std::vector<double>{1.0, 10.0, 5.0}, std::vector<double>{5.0, 5.0, 1.0},
        std::vector<double>{1.0, 1.0}, std::vector<double>{2.0, 20.0, 2.0}}) {
    for (const double tau : {1.0, 0.0}) {
      SparsifyOptions opt;
      opt.ratios = ratios;
      opt.tau = tau;  // tau = 0 sends every list through the unsafe fallback
      std::string what = "tau=" + std::to_string(tau) + " ratios";
      for (const double t : ratios) what += " " + std::to_string(t);
      expect_matches_oracle(a, opt, what);
    }
  }
}

TEST(SparsifyDifferential, RowWithoutStoredDiagonal) {
  // Row 14 stores no diagonal: min diag is 0, so every ratio that drops
  // something is unsafe.
  const Csr<double> poisson = gen_poisson2d(6, 6);
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < poisson.rows; ++i)
    for (index_t p = poisson.rowptr[i]; p < poisson.rowptr[i + 1]; ++p) {
      const index_t j = poisson.colind[static_cast<std::size_t>(p)];
      if (i != 14 || j != 14)
        ts.push_back({i, j, poisson.values[static_cast<std::size_t>(p)]});
    }
  const Csr<double> a = csr_from_triplets<double>(6 * 6, 6 * 6, std::move(ts));
  const SparsifyDecision<double> d = wavefront_aware_sparsify(a);
  EXPECT_EQ(d.outcome, SparsifyOutcome::kUnsafeFallback);
  expect_matches_oracle(a, {}, "no diagonal");
  SparsifyOptions lanczos;
  lanczos.estimator = ConditionEstimator::kLanczos;
  lanczos.lanczos_steps = 4;
  expect_matches_oracle(a, lanczos, "no diagonal, Lanczos");
}

TEST(SparsifyDifferential, LanczosEstimator) {
  SparsifyOptions opt;
  opt.estimator = ConditionEstimator::kLanczos;
  opt.lanczos_steps = 30;
  for (const index_t id : {index_t{0}, index_t{9}, index_t{23}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    expect_matches_oracle(g.a, opt, g.spec.name + " Lanczos");
  }
  expect_matches_oracle(gen_chain_with_skips(400, 4, 1e-5, 1.0, 3), opt,
                        "chain Lanczos");
}

TEST(SparsifyDifferential, SparsifiedDenominator) {
  SparsifyOptions opt;
  opt.denominator = WavefrontDenominator::kSparsified;
  expect_matches_oracle(gen_chain_with_skips(500, 4, 1e-5, 1.0, 17), opt,
                        "chain");
  for (const index_t id : {index_t{5}, index_t{50}, index_t{100}}) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    expect_matches_oracle(g.a, opt, g.spec.name + " kSparsified");
  }
}

TEST(SparsifyDifferential, SharedRankingServesEveryRatioInAnyOrder) {
  // One ranking, re-selected up and down, matches a fresh split per ratio.
  const Csr<double> a = gen_varcoef2d(30, 30, 2.5, 4);
  SparsifyRanking<double> ranking(a, 20.0);
  for (const double t : {10.0, 1.0, 20.0, 0.0, 5.0, 5.0, 15.0}) {
    ranking.select(t);
    expect_same_split(ranking.split(), oracle::ratio_split(a, t),
                      "t=" + std::to_string(t));
  }
  EXPECT_THROW(ranking.select(30.0), Error);  // beyond the ranked prefix
}

// --- fail-fast validation ---------------------------------------------------

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(SparsifyValidation, RejectsBadRatioBeforeAnyWork) {
  // A NaN in A would be reported once the matrix is read; the option error
  // must come first, before any ratio is evaluated.
  Csr<double> a = gen_poisson2d(20, 20);
  a.values[7] = std::numeric_limits<double>::quiet_NaN();
  SparsifyOptions opt;
  opt.ratios = {10.0, 5.0, 150.0};
  const std::string what =
      error_of([&] { (void)wavefront_aware_sparsify(a, opt); });
  EXPECT_NE(what.find("150"), std::string::npos) << what;
  EXPECT_EQ(what.find(analysis::kRuleTaintNonFinite), std::string::npos)
      << what;
}

TEST(SparsifyValidation, RejectsEveryMalformedOption) {
  const Csr<double> a = gen_poisson2d(8, 8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SparsifyOptions> bad(8);
  bad[0].ratios = {};
  bad[1].ratios = {10.0, nan};
  bad[2].ratios = {inf};
  bad[3].ratios = {-1.0, 5.0};
  bad[4].ratios = {100.0};
  bad[5].tau = nan;
  bad[6].tau = inf;
  bad[7].omega_percent = nan;
  for (std::size_t k = 0; k < bad.size(); ++k)
    EXPECT_THROW((void)wavefront_aware_sparsify(a, bad[k]), Error) << k;
  EXPECT_THROW((void)sparsify_by_ratio(a, nan), Error);
}

TEST(SparsifyValidation, RejectsNonFiniteValueWithRuleAndLocation) {
  // A NaN off-diagonal would be a sort key; Algorithm 2 must refuse it
  // instead of returning a decision.
  const Csr<double> base = gen_poisson2d(20, 20);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Csr<double> a = base;
    const index_t p = a.find(41, 42);
    ASSERT_GE(p, 0);
    a.values[static_cast<std::size_t>(p)] = bad;
    const std::string what =
        error_of([&] { (void)wavefront_aware_sparsify(a); });
    EXPECT_NE(what.find(analysis::kRuleTaintNonFinite), std::string::npos)
        << what;
    EXPECT_NE(what.find("row 41 col 42"), std::string::npos) << what;
    EXPECT_THROW((void)sparsify_by_ratio(a, 5.0), Error);
  }
}

TEST(SparsifyValidation, RejectsUnsortedRow) {
  Csr<double> a = gen_poisson2d(6, 6);
  std::swap(a.colind[1], a.colind[2]);  // row 0 now lists (0,6) before (0,1)
  const std::string what = error_of([&] { (void)wavefront_aware_sparsify(a); });
  EXPECT_NE(what.find(analysis::kRuleColindSorted), std::string::npos) << what;
}

}  // namespace
}  // namespace spcg
