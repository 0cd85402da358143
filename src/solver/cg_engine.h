// The CG engine: each preconditioned conjugate gradient recurrence of the
// library, written once against a small vector-space policy.
//
//   * classic_cg   — the paper's Algorithm 1: residual check at the top of
//     the loop, one SpMV and one preconditioner apply per iteration, two
//     reductions ({p, w} curvature; fused {(r, z), ||r||^2}).
//   * pipelined_cg — the pipelined recurrence (Ghysels & Vanroose) in its
//     single-reduction schedule: delta = (w, z) is computed at the *bottom*
//     of the iteration, where w and z already hold the values the next
//     iteration's top would see, and fused with {gamma, ||r||^2}; the
//     preconditioner apply mw = M^{-1} w overlaps that one reduction. The
//     startup reduction fuses {||b||^2, (r, z), ||r||^2, (w, z)}.
//
// A space supplies the operator, the preconditioner and the reduction:
//
//   kCategory, kReduceSpan       trace category and reduction span name
//   size()                       local vector length
//   is_root()                    whether this copy keeps the history
//   matvec(x, y)                 y = A x (emits its own spans)
//   precondition(r, z)           z = M^{-1} r
//   reduce(red)                  fold local partial sums, in place
//   reduce_overlapping(red, fn)  same, running fn() while the fold is open
//
// LocalSpace below is the serial form (pcg(), pipelined_pcg()); the
// rank-local distributed form lives in dist/dist_pcg.h. Every scalar the
// loops branch on is a reduced value, so a distributed space keeps all
// ranks on the same collective sequence. Partial sums are accumulated in T
// and carried as double; the T -> double -> T round trip is exact, so the
// local form reduces in T exactly like a plain dot().
//
// Both loops share the edge-case rules: options are validated before any
// work, b = 0 answers x = 0 (converged, 0 iterations) whatever the
// tolerance or initial guess, NaN curvature or rho reports kBreakdown, and
// the reported final residual is recomputed as ||b - A x||_2 in double.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "analysis/alloc_audit.h"
#include "precond/preconditioner.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/trace.h"

namespace spcg {

/// Solver configuration (paper defaults: tol 1e-12, 1000 iterations).
struct PcgOptions {
  double tolerance = 1e-12;   // convergence when ||r|| < tolerance
  bool relative = false;      // if set, compare against tolerance * ||b||
  std::int32_t max_iterations = 1000;
  bool record_history = false;  // keep ||r|| per iteration
  /// Per-iteration trace sampling: when the global trace recorder is
  /// enabled and trace_every > 0, every trace_every-th iteration emits
  /// "iteration"/"spmv"/"precond"/"reduce" spans (and the SpTRSV sweep
  /// spans nested under the preconditioner apply). 0 = per-iteration spans
  /// off; the enclosing "pcg" / "pipelined_pcg" span is always emitted
  /// while tracing. Does not affect the setup cache key (solve-phase
  /// option).
  std::int32_t trace_every = 0;
};

/// Reject options the loops cannot honor before any work starts. A NaN
/// tolerance would otherwise run to max_iterations and report breakdown.
inline void validate_pcg_options(const PcgOptions& opt) {
  SPCG_CHECK_MSG(std::isfinite(opt.tolerance) && opt.tolerance >= 0.0,
                 "tolerance must be finite and >= 0, got " << opt.tolerance);
  SPCG_CHECK_MSG(opt.max_iterations >= 0,
                 "max_iterations must be >= 0, got " << opt.max_iterations);
  SPCG_CHECK_MSG(opt.trace_every >= 0,
                 "trace_every must be >= 0, got " << opt.trace_every);
}

enum class SolveStatus {
  kConverged,
  kMaxIterations,
  kBreakdown,  // division by (numerically) zero curvature or rho
};

/// Result of a CG/PCG run.
template <class T>
struct SolveResult {
  std::vector<T> x;
  SolveStatus status = SolveStatus::kMaxIterations;
  std::int32_t iterations = 0;        // iterations actually performed
  double final_residual_norm = 0.0;   // ||b - A x||_2 at exit (recomputed)
  std::vector<double> residual_history;  // when record_history

  [[nodiscard]] bool converged() const {
    return status == SolveStatus::kConverged;
  }
};

/// Caller-owned scratch for the CG loops. A default-constructed workspace is
/// valid; the first solve through it sizes every vector and subsequent
/// solves of the same dimension reuse the capacity (no heap traffic). The
/// `x` member is a donor buffer for the result: the solve moves it into
/// SolveResult::x, so it is empty after the call — move a retired solution
/// buffer back in before the next solve to keep the round trip
/// allocation-free (see TransientSession for the canonical double-buffer
/// pattern). mw, s and q are used by the pipelined recurrence only.
template <class T>
struct PcgWorkspace {
  std::vector<T> r, z, p, w, ax, mw, s, q;
  std::vector<T> x;  // donor buffer, consumed by each solve
};

namespace detail {

// The partial sums are kept out of line: inlined into the loops, GCC
// keeps the accumulator in memory (a store-forward stall per element),
// which doubles their cost on vectors that do not fit in cache.

/// Local partial of dot(x, y), accumulated in T like sparse/norms.h dot().
template <class T>
[[gnu::noinline]] T partial_dot(std::span<const T> x, std::span<const T> y) {
  T acc{0};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

/// Local partial of ||x||^2, accumulated in T like norm2() before its sqrt.
template <class T>
[[gnu::noinline]] T partial_sumsq(std::span<const T> x) {
  T acc{0};
  for (const T& v : x) acc += v * v;
  return acc;
}

/// Partial sums of the residual check, (r, z) and ||r||^2, plus (w, z) when
/// w is given (the pipelined schedule).
template <class T>
struct ResidualSums {
  T rz{0}, rr{0}, wz{0};
};

/// One pass for ResidualSums. Each sum keeps its own in-order accumulator,
/// so each is bitwise equal to its partial_dot / partial_sumsq twin while
/// r and z are streamed once instead of two or three times.
template <class T>
[[gnu::noinline]] ResidualSums<T> partial_residual_sums(
    std::span<const T> r, std::span<const T> z, std::span<const T> w = {}) {
  T rz{0}, rr{0}, wz{0};
  if (w.empty()) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      rz += r[i] * z[i];
      rr += r[i] * r[i];
    }
  } else {
    for (std::size_t i = 0; i < r.size(); ++i) {
      rz += r[i] * z[i];
      rr += r[i] * r[i];
      wz += w[i] * z[i];
    }
  }
  return {rz, rr, wz};
}

/// Finish a reduced sum of squares the way norm2() finishes: cast back to
/// T, sqrt in T, report as double.
template <class T>
double norm_from_sumsq(double reduced) {
  return static_cast<double>(std::sqrt(static_cast<T>(reduced)));
}

/// x starts as the initial guess (or zero) and r as b - A x. The guess is
/// copied first, so x0 may point into a buffer the caller is recycling.
template <class T, class Space>
void start_iterate(Space& vs, std::span<const T> b, std::span<const T> x0,
                   PcgWorkspace<T>& wk, std::vector<T>& x) {
  const std::size_t n = vs.size();
  if (!x0.empty()) {
    SPCG_CHECK(x0.size() == n);
    x.assign(x0.begin(), x0.end());
  } else {
    x.assign(n, T{0});
  }
  wk.r.assign(b.begin(), b.end());
  if (!x0.empty()) {
    wk.w.assign(n, T{0});
    vs.matvec(std::span<const T>(x), std::span<T>(wk.w));
    for (std::size_t i = 0; i < n; ++i) wk.r[i] -= wk.w[i];
  }
}

/// b = 0 has the exact solution x = 0. Under a relative tolerance the
/// threshold would be 0 and ||r|| < 0 can never hold, so answer directly;
/// an initial guess is discarded.
template <class T>
void answer_zero_rhs(SolveResult<T>& res, std::size_t n, bool history) {
  res.x.assign(n, T{0});
  res.status = SolveStatus::kConverged;
  res.iterations = 0;
  if (history) res.residual_history.push_back(0.0);
}

/// Close a solve: resolve a final-iteration convergence and recompute the
/// true residual ||b - A x||_2 in double (the recurrence can drift).
template <class T, class Space>
void finish_solve(Space& vs, std::span<const T> b, PcgWorkspace<T>& wk,
                  SolveResult<T>& res, std::int32_t k, double r_norm,
                  double target) {
  if (res.status == SolveStatus::kMaxIterations && r_norm < target)
    res.status = SolveStatus::kConverged;
  res.iterations = k;
  wk.ax.assign(vs.size(), T{0});
  vs.matvec(std::span<const T>(res.x), std::span<T>(wk.ax));
  double sumsq = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = static_cast<double>(b[i]) - static_cast<double>(wk.ax[i]);
    sumsq += d * d;
  }
  std::array<double, 1> red{sumsq};
  vs.reduce(std::span<double>(red));
  res.final_residual_norm = std::sqrt(red[0]);
}

}  // namespace detail

/// Classic left-preconditioned CG (Algorithm 1 of the paper) over `vs`.
/// `b` is the space's local right-hand side; `x0` an optional initial guess
/// (empty = zero, and then r0 is taken from b without an SpMV).
/// Reductions: 2 per iteration + 3 (||b||, startup, true residual).
template <class T, class Space>
SolveResult<T> classic_cg(Space& vs, std::span<const T> b,
                          const PcgOptions& opt, std::span<const T> x0,
                          PcgWorkspace<T>& wk) {
  validate_pcg_options(opt);
  const std::size_t n = vs.size();
  SPCG_CHECK(b.size() == n);
  const bool history = opt.record_history && vs.is_root();
  const auto cat = Space::kCategory;
  SolveResult<T> res;
  res.x = std::move(wk.x);  // donor buffer

  std::array<double, 2> red{};
  red[0] = static_cast<double>(detail::partial_sumsq(b));
  vs.reduce(std::span<double>(red.data(), 1));
  const double b_norm = detail::norm_from_sumsq<T>(red[0]);
  if (b_norm == 0.0) {
    detail::answer_zero_rhs(res, n, history);
    return res;
  }

  const bool trace_iters = opt.trace_every > 0 && global_trace().enabled();
  {
    const TraceSampleScope sample(trace_iters);
    detail::start_iterate(vs, b, x0, wk, res.x);
    wk.z.assign(n, T{0});
    wk.w.assign(n, T{0});
    Span span("precond", cat);
    vs.precondition(std::span<const T>(wk.r), std::span<T>(wk.z));
  }
  wk.p.assign(wk.z.begin(), wk.z.end());

  const detail::ResidualSums<T> sums0 = detail::partial_residual_sums(
      std::span<const T>(wk.r), std::span<const T>(wk.z));
  red = {static_cast<double>(sums0.rz), static_cast<double>(sums0.rr)};
  vs.reduce(std::span<double>(red));
  T rz = static_cast<T>(red[0]);
  double r_norm = detail::norm_from_sumsq<T>(red[1]);
  const double target = opt.relative ? opt.tolerance * b_norm : opt.tolerance;
  if (history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    // Allocation probe: after the warmup iteration (k = 0) an iteration
    // must not touch the heap. Tracing and history recording allocate by
    // design, so the steady-state claim only holds with both off.
    const analysis::AllocAuditScope alloc_scope("pcg.iteration",
                                                /*steady_state=*/k > 0);
    // Per-iteration spans, sampled every trace_every-th iteration;
    // unsampled iterations suppress these and any nested spans.
    const TraceSampleScope sample(trace_iters && k % opt.trace_every == 0);
    Span iter_span("iteration", cat);
    iter_span.arg("k", k);
    vs.matvec(std::span<const T>(wk.p), std::span<T>(wk.w));
    T pw;
    {
      Span span(Space::kReduceSpan, cat);
      red[0] = static_cast<double>(detail::partial_dot(
          std::span<const T>(wk.p), std::span<const T>(wk.w)));
      vs.reduce(std::span<double>(red.data(), 1));
      pw = static_cast<T>(red[0]);
    }
    if (!(pw > T{0})) {  // SPD curvature must be positive; catches NaN too
      res.status = SolveStatus::kBreakdown;
      break;
    }
    const T alpha = rz / pw;
    {
      Span span("axpy", cat);
      axpy(alpha, std::span<const T>(wk.p), std::span<T>(res.x));
      axpy(-alpha, std::span<const T>(wk.w), std::span<T>(wk.r));
    }
    {
      Span span("precond", cat);
      vs.precondition(std::span<const T>(wk.r), std::span<T>(wk.z));
    }
    {
      Span span(Space::kReduceSpan, cat);
      const detail::ResidualSums<T> sums = detail::partial_residual_sums(
          std::span<const T>(wk.r), std::span<const T>(wk.z));
      red = {static_cast<double>(sums.rz), static_cast<double>(sums.rr)};
      vs.reduce(std::span<double>(red));
    }
    const T rz_next = static_cast<T>(red[0]);
    if (rz == T{0} || rz_next != rz_next) {  // NaN guard
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    const T beta = rz_next / rz;
    rz = rz_next;
    {
      Span span("axpy", cat);
      xpby(std::span<const T>(wk.z), beta, std::span<T>(wk.p));
    }
    r_norm = detail::norm_from_sumsq<T>(red[1]);
    if (history) res.residual_history.push_back(r_norm);
  }
  const TraceSampleScope sample(trace_iters);
  detail::finish_solve(vs, b, wk, res, k, r_norm, target);
  return res;
}

/// Pipelined PCG over `vs`, one fused reduction per iteration. Same
/// arguments and result as classic_cg. Reductions: 1 per iteration + 2
/// (fused startup, true residual).
template <class T, class Space>
SolveResult<T> pipelined_cg(Space& vs, std::span<const T> b,
                            const PcgOptions& opt, std::span<const T> x0,
                            PcgWorkspace<T>& wk) {
  validate_pcg_options(opt);
  const std::size_t n = vs.size();
  SPCG_CHECK(b.size() == n);
  const bool history = opt.record_history && vs.is_root();
  const auto cat = Space::kCategory;
  SolveResult<T> res;
  res.x = std::move(wk.x);  // donor buffer

  // mw = M^{-1} w, run while the iteration's reduction is in flight.
  auto apply_w = [&] {
    Span span("precond", cat);
    vs.precondition(std::span<const T>(wk.w), std::span<T>(wk.mw));
  };

  const bool trace_iters = opt.trace_every > 0 && global_trace().enabled();
  std::array<double, 4> red{};
  {
    const TraceSampleScope sample(trace_iters);
    detail::start_iterate(vs, b, x0, wk, res.x);
    for (auto* v : {&wk.z, &wk.w, &wk.mw, &wk.p, &wk.s, &wk.q})
      v->assign(n, T{0});
    {
      Span span("precond", cat);
      vs.precondition(std::span<const T>(wk.r), std::span<T>(wk.z));
    }
    vs.matvec(std::span<const T>(wk.z), std::span<T>(wk.w));
    const detail::ResidualSums<T> sums0 = detail::partial_residual_sums(
        std::span<const T>(wk.r), std::span<const T>(wk.z),
        std::span<const T>(wk.w));
    red = {static_cast<double>(detail::partial_sumsq(b)),
           static_cast<double>(sums0.rz), static_cast<double>(sums0.rr),
           static_cast<double>(sums0.wz)};
    vs.reduce_overlapping(std::span<double>(red), apply_w);
  }
  const double b_norm = detail::norm_from_sumsq<T>(red[0]);
  if (b_norm == 0.0) {
    detail::answer_zero_rhs(res, n, history);
    return res;
  }
  const double target = opt.relative ? opt.tolerance * b_norm : opt.tolerance;
  T gamma = static_cast<T>(red[1]);
  T alpha{0}, gamma_old{0};
  double r_norm = detail::norm_from_sumsq<T>(red[2]);
  double delta_d = red[3];
  if (history) res.residual_history.push_back(r_norm);

  std::int32_t k = 0;
  for (; k < opt.max_iterations; ++k) {
    if (r_norm < target) {
      res.status = SolveStatus::kConverged;
      break;
    }
    const analysis::AllocAuditScope alloc_scope("pcg.iteration",
                                                /*steady_state=*/k > 0);
    const TraceSampleScope sample(trace_iters && k % opt.trace_every == 0);
    Span iter_span("iteration", cat);
    iter_span.arg("k", k);
    const T delta = static_cast<T>(delta_d);

    T beta;
    if (k == 0) {
      beta = T{0};
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_old;
      const T denom = delta - beta * gamma / alpha;
      if (!(denom != T{0}) || denom != denom) {  // zero or NaN
        res.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }
    if (!(alpha == alpha)) {  // NaN guard
      res.status = SolveStatus::kBreakdown;
      break;
    }
    {
      Span span("axpy", cat);
      xpby(std::span<const T>(wk.z), beta, std::span<T>(wk.p));
      xpby(std::span<const T>(wk.w), beta, std::span<T>(wk.s));
      xpby(std::span<const T>(wk.mw), beta, std::span<T>(wk.q));
      axpy(alpha, std::span<const T>(wk.p), std::span<T>(res.x));
      axpy(-alpha, std::span<const T>(wk.s), std::span<T>(wk.r));
      axpy(-alpha, std::span<const T>(wk.q), std::span<T>(wk.z));
    }
    vs.matvec(std::span<const T>(wk.z), std::span<T>(wk.w));
    gamma_old = gamma;
    // The iteration's single reduction: this iteration's {gamma, ||r||^2}
    // plus next iteration's delta, overlapped with mw = M^{-1} w.
    {
      Span span(Space::kReduceSpan, cat);
      const detail::ResidualSums<T> sums = detail::partial_residual_sums(
          std::span<const T>(wk.r), std::span<const T>(wk.z),
          std::span<const T>(wk.w));
      red[0] = static_cast<double>(sums.rz);
      red[1] = static_cast<double>(sums.rr);
      red[2] = static_cast<double>(sums.wz);
    }
    vs.reduce_overlapping(std::span<double>(red.data(), 3), apply_w);
    gamma = static_cast<T>(red[0]);
    if (gamma != gamma) {
      res.status = SolveStatus::kBreakdown;
      ++k;
      break;
    }
    delta_d = red[2];
    r_norm = detail::norm_from_sumsq<T>(red[1]);
    if (history) res.residual_history.push_back(r_norm);
  }
  const TraceSampleScope sample(trace_iters);
  detail::finish_solve(vs, b, wk, res, k, r_norm, target);
  return res;
}

/// The serial space: A and M on one address space, reductions are the local
/// sums themselves.
template <class T>
class LocalSpace {
 public:
  static constexpr const char* kCategory = "solve";
  static constexpr const char* kReduceSpan = "reduce";

  LocalSpace(const Csr<T>& a, const Preconditioner<T>& m) : a_(a), m_(m) {
    SPCG_CHECK(a.rows == a.cols);
    SPCG_CHECK(m.rows() == a.rows);
  }

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(a_.rows);
  }
  [[nodiscard]] static bool is_root() { return true; }

  void matvec(std::span<const T> x, std::span<T> y) const {
    Span span("spmv", kCategory);
    spmv(a_, x, y);
  }
  void precondition(std::span<const T> r, std::span<T> z) const {
    m_.apply(r, z);
  }
  static void reduce(std::span<double> /*red*/) {}
  template <class Fn>
  static void reduce_overlapping(std::span<double> /*red*/, Fn&& compute) {
    compute();
  }

 private:
  const Csr<T>& a_;
  const Preconditioner<T>& m_;
};

}  // namespace spcg
