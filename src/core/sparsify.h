// Wavefront-aware sparsification — the paper's primary contribution
// (Section 3.2, Algorithm 2).
//
// Given a symmetric matrix A, split A = Â + S by removing the
// smallest-magnitude off-diagonal entries (symmetric pairs together, the
// diagonal never). Candidate drop ratios t ∈ {10, 5, 1}% are tried in
// decreasing aggressiveness; a candidate is accepted when
//   (1) the convergence indicator ‖Â⁻¹‖·‖S‖ stays below the threshold τ
//       (Eq. 6, with the inexpensive condition-number proxy of §3.2.2), and
//   (2) the wavefront reduction (Eq. 7) reaches the threshold ω — or t is the
//       most conservative ratio.
// If no ratio passes the convergence check, the most aggressive ratio is
// returned anyway (Algorithm 2, line 6): with no safe level, the paper
// prioritizes per-iteration speedup.
//
// The candidates are ranked once per matrix (SparsifyRanking). The drop set
// of a ratio is the longest smallest-first prefix of that one order whose
// pair cost fits the ratio's target, so every ratio tried is a prefix of the
// same order. Each ratio is then evaluated on a drop mask over A's positions
// (one masked O(nnz) pass for the convergence proxy, one masked level relax
// for the wavefront count); Â and S are materialized only for the ratio
// Algorithm 2 returns.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "solver/lanczos.h"
#include "sparse/csr.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "wavefront/levels.h"

namespace spcg {

/// A = a_hat + s decomposition produced by one sparsification ratio.
template <class T>
struct SparsifySplit {
  Csr<T> a_hat;            // sparsified matrix Â
  Csr<T> s;                // residual matrix S (the dropped entries)
  double ratio_percent = 0.0;  // requested t
  index_t dropped = 0;     // entries actually removed (= nnz(S))
};

/// The convergence-safety indicator of Algorithm 2 (lines 4–5).
struct ConvergenceIndicator {
  double inv_norm = 0.0;  // estimate of ‖Â⁻¹‖
  double s_norm = 0.0;    // ‖S‖_inf
  double product = 0.0;   // the quantity compared against τ
};

enum class ConditionEstimator {
  /// Paper's proxy: κ(Â) ≈ ‖Â‖_inf / min_i â_ii, ‖Â‖₂ ≈ ‖Â‖_inf,
  /// so ‖Â⁻¹‖ ≈ κ(Â)/‖Â‖₂.
  kDiagonalProxy,
  /// Ablation (§3.2.3): Lanczos extreme eigenvalues, ‖Â⁻¹‖ = 1/λ_min.
  kLanczos,
};

namespace detail {

/// The diagonal proxy from its three inputs: ‖S‖_inf, ‖Â‖_inf and
/// min_i â_ii (a missing diagonal counts as 0).
inline ConvergenceIndicator diagonal_proxy_indicator(double s_norm,
                                                     double a_inf,
                                                     double min_diag) {
  ConvergenceIndicator ind;
  ind.s_norm = s_norm;
  if (!(min_diag > 0.0) || a_inf == 0.0) {
    ind.inv_norm = std::numeric_limits<double>::infinity();
  } else {
    const double kappa = a_inf / min_diag;  // condition-number proxy
    ind.inv_norm = kappa / a_inf;           // ‖Â⁻¹‖ ≈ κ/‖Â‖₂, ‖Â‖₂≈‖Â‖_inf
  }
  ind.product = ind.inv_norm * ind.s_norm;
  return ind;
}

inline void check_ratio(double t_percent) {
  SPCG_CHECK_MSG(std::isfinite(t_percent) && t_percent >= 0.0 &&
                     t_percent < 100.0,
                 "sparsify ratio " << t_percent << "% outside [0, 100)");
}

/// Entries to drop at ratio `t_percent`: round(t/100 * nnz(A)).
inline index_t drop_target(double t_percent, index_t nnz) {
  check_ratio(t_percent);
  return static_cast<index_t>(
      std::llround(t_percent / 100.0 * static_cast<double>(nnz)));
}

[[noreturn]] inline void raise_input_error(const char* rule, index_t row,
                                           index_t col,
                                           const std::string& message) {
  throw Error(analysis::Diagnostic{analysis::Severity::kError, rule, "A", row,
                                   col, message}
                  .to_string());
}

}  // namespace detail

template <class T>
ConvergenceIndicator convergence_indicator(
    const Csr<T>& a_hat, const Csr<T>& s,
    ConditionEstimator estimator = ConditionEstimator::kDiagonalProxy,
    int lanczos_steps = 60) {
  const auto s_norm = static_cast<double>(norm_inf(s));
  if (estimator == ConditionEstimator::kDiagonalProxy) {
    double min_diag = std::numeric_limits<double>::infinity();
    for (index_t i = 0; i < a_hat.rows; ++i)
      min_diag = std::min(min_diag, static_cast<double>(a_hat.at(i, i)));
    return detail::diagonal_proxy_indicator(
        s_norm, static_cast<double>(norm_inf(a_hat)), min_diag);
  }
  ConvergenceIndicator ind;
  ind.s_norm = s_norm;
  const EigEstimate eig = lanczos_extreme_eigenvalues(a_hat, lanczos_steps);
  ind.inv_norm = eig.lambda_min > 0.0
                     ? 1.0 / eig.lambda_min
                     : std::numeric_limits<double>::infinity();
  ind.product = ind.inv_norm * ind.s_norm;
  return ind;
}

/// The drop candidates of a matrix, ranked once, plus a drop mask that
/// select() moves to any ratio up to the one the ranking was built for.
///
/// A candidate is an upper-triangle entry (i, j), i < j; its mirror (j, i),
/// when stored, is dropped with it and the pair costs 2 (an unpaired entry of
/// a structurally unsymmetric A costs 1). Candidates are ordered by
/// (|a_ij|, position of (i, j)), which for sorted rows is the (|v|, i, j)
/// order. The drop set of ratio t walks that order smallest-first and stops
/// at the first candidate that would overflow round(t/100 * nnz(A)), so the
/// drop sets of all ratios are prefixes of one order, and only the prefix
/// the largest ratio can reach is ever sorted.
///
/// A must stay alive and unchanged while the ranking is used. Rows must be
/// sorted without duplicates (rule csr.colind.sorted) and every value finite
/// (rule taint.nonfinite); either violation throws spcg::Error naming the
/// rule and the (row, col).
template <class T>
class SparsifyRanking {
 public:
  SparsifyRanking(const Csr<T>& a, double max_ratio_percent)
      : a_(&a), max_target_(detail::drop_target(max_ratio_percent, a.nnz())) {
    SPCG_CHECK(a.rows == a.cols);
    const index_t n = a.rows;
    std::size_t upper = 0;
    min_diag_ = std::numeric_limits<double>::infinity();
    for (index_t i = 0; i < n; ++i) {
      index_t prev = -1;
      T diag{0};  // a missing diagonal counts as 0
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t j = a.colind[static_cast<std::size_t>(p)];
        const T v = a.values[static_cast<std::size_t>(p)];
        if (j <= prev)
          detail::raise_input_error(
              "csr.colind.sorted", i, j,
              "row columns must be strictly increasing to rank drop "
              "candidates");
        if (!std::isfinite(v))
          detail::raise_input_error(
              "taint.nonfinite", i, j,
              "non-finite value cannot be ranked for sparsification");
        prev = j;
        if (j == i) diag = v;
        if (j > i) ++upper;
      }
      min_diag_ = std::min(min_diag_, static_cast<double>(diag));
    }

    // Records with their mirror positions. Rows are visited in increasing
    // order, so the lookups into any row j arrive with increasing column i
    // and one forward-only cursor per row finds every mirror.
    order_.reserve(upper);
    std::vector<index_t> cursor(a.rowptr.begin(), a.rowptr.begin() + n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t j = a.colind[static_cast<std::size_t>(p)];
        if (j <= i) continue;
        index_t& q = cursor[static_cast<std::size_t>(j)];
        const index_t end = a.rowptr[static_cast<std::size_t>(j) + 1];
        while (q < end && a.colind[static_cast<std::size_t>(q)] < i) ++q;
        const index_t mirror =
            q < end && a.colind[static_cast<std::size_t>(q)] == i ? q : -1;
        order_.push_back(
            {std::abs(a.values[static_cast<std::size_t>(p)]), p, mirror});
      }
    }

    // Every record costs at least 1, so no walk takes more than max_target_
    // records: only that prefix of the order is kept and sorted.
    const auto by_rank = [](const Candidate& x, const Candidate& y) {
      return x.magnitude != y.magnitude ? x.magnitude < y.magnitude
                                        : x.upper < y.upper;
    };
    const std::size_t keep =
        std::min(order_.size(), static_cast<std::size_t>(max_target_));
    const auto cut = order_.begin() + static_cast<std::ptrdiff_t>(keep);
    if (keep < order_.size()) {
      std::nth_element(order_.begin(), cut, order_.end(), by_rank);
      order_.resize(keep);
      order_.shrink_to_fit();
    }
    std::sort(order_.begin(), order_.end(), by_rank);
    drop_.assign(static_cast<std::size_t>(a.nnz()), 0);
  }

  /// Move the drop mask to ratio `t_percent` (Algorithm 2, line 3); returns
  /// the entries dropped. Ratio 0 empties the mask.
  index_t select(double t_percent) {
    const index_t target = detail::drop_target(t_percent, a_->nnz());
    SPCG_CHECK_MSG(target <= max_target_,
                   "ratio " << t_percent
                            << "% lies beyond the ranked prefix");
    std::size_t k = 0;
    index_t dropped = 0;
    for (; k < order_.size(); ++k) {
      const index_t cost = order_[k].mirror >= 0 ? 2 : 1;
      if (dropped + cost > target) break;
      dropped += cost;
    }
    for (std::size_t q = k; q < selected_; ++q) mark(order_[q], 0);
    for (std::size_t q = selected_; q < k; ++q) mark(order_[q], 1);
    selected_ = k;
    dropped_ = dropped;
    ratio_percent_ = t_percent;
    return dropped;
  }

  /// The diagonal proxy of the selected split in one masked pass over A:
  /// row sums run in A's column order, so ‖Â‖_inf and ‖S‖_inf equal
  /// norm_inf of the materialized Â and S bit for bit.
  [[nodiscard]] ConvergenceIndicator indicator() const {
    const Csr<T>& a = *a_;
    T a_inf{0}, s_inf{0};
    for (index_t i = 0; i < a.rows; ++i) {
      T a_row{0}, s_row{0};
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const T v = std::abs(a.values[static_cast<std::size_t>(p)]);
        if (drop_[static_cast<std::size_t>(p)] != 0) {
          s_row += v;
        } else {
          a_row += v;
        }
      }
      a_inf = std::max(a_inf, a_row);
      s_inf = std::max(s_inf, s_row);
    }
    return detail::diagonal_proxy_indicator(static_cast<double>(s_inf),
                                            static_cast<double>(a_inf),
                                            min_diag_);
  }

  /// Wavefronts of the selected Â's lower pattern: the level relax over A
  /// with the dropped positions masked out.
  [[nodiscard]] index_t wavefronts() {
    levels_.resize(static_cast<std::size_t>(a_->rows));
    return detail::relax_levels(
        *a_, Triangle::kLower, std::span<index_t>(levels_),
        [this](index_t p) { return drop_[static_cast<std::size_t>(p)] == 0; });
  }

  /// Materialize Â and S of the selected ratio, each sized exactly.
  [[nodiscard]] SparsifySplit<T> split() const {
    const Csr<T>& a = *a_;
    SparsifySplit<T> out;
    out.ratio_percent = ratio_percent_;
    out.dropped = dropped_;
    out.a_hat = Csr<T>(a.rows, a.cols);
    out.s = Csr<T>(a.rows, a.cols);
    out.a_hat.colind.resize(static_cast<std::size_t>(a.nnz() - dropped_));
    out.a_hat.values.resize(out.a_hat.colind.size());
    out.s.colind.resize(static_cast<std::size_t>(dropped_));
    out.s.values.resize(out.s.colind.size());
    std::size_t pa = 0, ps = 0;
    for (index_t i = 0; i < a.rows; ++i) {
      for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
           p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const auto q = static_cast<std::size_t>(p);
        if (drop_[q] != 0) {
          out.s.colind[ps] = a.colind[q];
          out.s.values[ps++] = a.values[q];
        } else {
          out.a_hat.colind[pa] = a.colind[q];
          out.a_hat.values[pa++] = a.values[q];
        }
      }
      out.a_hat.rowptr[static_cast<std::size_t>(i) + 1] =
          static_cast<index_t>(pa);
      out.s.rowptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ps);
    }
    return out;
  }

 private:
  struct Candidate {
    T magnitude;     // |a_ij|
    index_t upper;   // position of (i, j), i < j
    index_t mirror;  // position of (j, i), or -1 when not stored
  };
  static_assert(sizeof(T) != 8 || sizeof(Candidate) == 16);

  void mark(const Candidate& c, char value) {
    drop_[static_cast<std::size_t>(c.upper)] = value;
    if (c.mirror >= 0) drop_[static_cast<std::size_t>(c.mirror)] = value;
  }

  const Csr<T>* a_;
  index_t max_target_;
  double min_diag_ = 0.0;         // min_i a_ii (the diagonal is never dropped)
  std::vector<Candidate> order_;  // sorted smallest-first prefix
  std::vector<char> drop_;        // per position of A: 1 = in S
  std::size_t selected_ = 0;      // candidates currently marked
  index_t dropped_ = 0;
  double ratio_percent_ = 0.0;
  std::vector<index_t> levels_;   // relax scratch
};

/// Magnitude-based symmetric sparsification at ratio `t_percent`:
/// removes the smallest-|value| off-diagonal entries, in symmetric pairs,
/// without exceeding round(t/100 * nnz(A)) removals. Diagonal entries are
/// always preserved (§3.2.2). Ties break deterministically by (|v|, i, j).
template <class T>
SparsifySplit<T> sparsify_by_ratio(const Csr<T>& a, double t_percent) {
  SparsifyRanking<T> ranking(a, t_percent);
  ranking.select(t_percent);
  return ranking.split();
}

/// Denominator convention for the wavefront-reduction test. The paper's
/// Eq. 7 normalizes by w_A while Algorithm 2 line 10 writes w_Â; Eq. 7 is
/// what the analysis sections use, so it is the default here.
enum class WavefrontDenominator { kOriginal /*Eq. 7*/, kSparsified /*Alg. 2*/ };

/// Tunable knobs of Algorithm 2 (paper defaults: τ=1, ω=10%, t∈{10,5,1}).
struct SparsifyOptions {
  std::vector<double> ratios{10.0, 5.0, 1.0};  // tried in this order
  double tau = 1.0;
  double omega_percent = 10.0;
  ConditionEstimator estimator = ConditionEstimator::kDiagonalProxy;
  WavefrontDenominator denominator = WavefrontDenominator::kOriginal;
  int lanczos_steps = 60;
};

/// Throws spcg::Error unless the ratio list is non-empty with every ratio
/// finite and in [0, 100), and τ and ω are finite.
inline void validate_sparsify_options(const SparsifyOptions& opt) {
  SPCG_CHECK_MSG(!opt.ratios.empty(), "need at least one ratio");
  for (const double t : opt.ratios) detail::check_ratio(t);
  SPCG_CHECK_MSG(std::isfinite(opt.tau), "tau must be finite, got " << opt.tau);
  SPCG_CHECK_MSG(std::isfinite(opt.omega_percent),
                 "omega must be finite, got " << opt.omega_percent);
}

/// Why Algorithm 2 stopped where it did.
enum class SparsifyOutcome {
  kWavefrontAccepted,      // convergence ok and reduction >= ω
  kSmallestRatioFallback,  // all safe ratios lacked reduction -> smallest t
  kUnsafeFallback,         // even smallest t unsafe -> most aggressive t
};

/// Per-ratio diagnostics recorded while Algorithm 2 runs.
struct SparsifyStep {
  double ratio_percent = 0.0;
  index_t dropped = 0;
  ConvergenceIndicator indicator;
  bool convergence_ok = false;
  index_t wavefronts = 0;          // w_Ât (only computed when convergence_ok)
  double reduction_percent = 0.0;  // per the configured denominator
  bool wavefront_ok = false;
};

/// Full result of wavefront-aware sparsification.
template <class T>
struct SparsifyDecision {
  SparsifySplit<T> chosen;
  SparsifyOutcome outcome = SparsifyOutcome::kWavefrontAccepted;
  index_t wavefronts_original = 0;
  index_t wavefronts_chosen = 0;
  double reduction_percent = 0.0;  // Eq. 7 value for the chosen matrix
  std::vector<SparsifyStep> steps;
};

/// Algorithm 2 over an existing ranking, which must have been built for at
/// least the largest ratio of `opt` (callers that also need fixed-ratio
/// splits share one ranking).
template <class T>
SparsifyDecision<T> wavefront_aware_sparsify(SparsifyRanking<T>& ranking,
                                             const SparsifyOptions& opt) {
  validate_sparsify_options(opt);
  SparsifyDecision<T> out;
  ranking.select(0.0);
  out.wavefronts_original = ranking.wavefronts();  // line 1: w_A

  auto finalize = [&](double t, SparsifyOutcome outcome,
                      index_t wavefronts) {
    ranking.select(t);
    out.outcome = outcome;
    out.wavefronts_chosen = wavefronts >= 0 ? wavefronts : ranking.wavefronts();
    out.reduction_percent = wavefront_reduction_percent(
        out.wavefronts_original, out.wavefronts_chosen);
    out.chosen = ranking.split();
    return out;
  };

  for (std::size_t idx = 0; idx < opt.ratios.size(); ++idx) {
    const double t = opt.ratios[idx];
    const bool last = (idx + 1 == opt.ratios.size());

    SparsifyStep step;
    step.ratio_percent = t;
    step.dropped = ranking.select(t);  // line 3

    // Lines 4–8: convergence indicator against τ.
    if (opt.estimator == ConditionEstimator::kDiagonalProxy) {
      step.indicator = ranking.indicator();
    } else {
      const SparsifySplit<T> split = ranking.split();
      step.indicator = convergence_indicator(split.a_hat, split.s,
                                             opt.estimator, opt.lanczos_steps);
    }
    step.convergence_ok = !(step.indicator.product > opt.tau);
    if (!step.convergence_ok) {
      out.steps.push_back(step);
      if (last) {
        // Line 6: even the smallest ratio is unsafe; fall back to the most
        // aggressive ratio to maximize per-iteration speedup.
        return finalize(opt.ratios.front(), SparsifyOutcome::kUnsafeFallback,
                        -1);
      }
      continue;  // line 7
    }

    // Lines 9–12: wavefront-reduction effectiveness.
    step.wavefronts = ranking.wavefronts();
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

    if (step.wavefront_ok || last) {
      // Accepted (line 11), or the smallest ratio acting as the
      // minimal-error fallback (§3.2.2 closing paragraph).
      return finalize(t,
                      step.wavefront_ok
                          ? SparsifyOutcome::kWavefrontAccepted
                          : SparsifyOutcome::kSmallestRatioFallback,
                      step.wavefronts);
    }
  }
  // Unreachable: the loop always returns on the last ratio; kept for safety.
  return finalize(opt.ratios.front(), SparsifyOutcome::kUnsafeFallback, -1);
}

/// Algorithm 2: wavefront-aware sparsification. Options are validated
/// before A is read; the ranking lives only for the call.
template <class T>
SparsifyDecision<T> wavefront_aware_sparsify(const Csr<T>& a,
                                             const SparsifyOptions& opt = {}) {
  validate_sparsify_options(opt);
  SparsifyRanking<T> ranking(
      a, *std::max_element(opt.ratios.begin(), opt.ratios.end()));
  return wavefront_aware_sparsify(ranking, opt);
}

/// Human-readable outcome label (used by reports and benches).
inline const char* to_string(SparsifyOutcome o) {
  switch (o) {
    case SparsifyOutcome::kWavefrontAccepted: return "wavefront-accepted";
    case SparsifyOutcome::kSmallestRatioFallback: return "smallest-ratio";
    case SparsifyOutcome::kUnsafeFallback: return "unsafe-fallback";
  }
  return "unknown";
}

}  // namespace spcg
