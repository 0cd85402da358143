#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/spcg.h"
#include "gen/suite.h"
#include "host.h"
#include "inputs.h"
#include "runtime/dist_session.h"
#include "runtime/solve_service.h"
#include "stats.h"

namespace perfbench {
namespace {

using spcg::Csr;
using spcg::index_t;
using spcg::IluPreconditioner;
using spcg::LevelSchedule;
using spcg::Preconditioner;
using spcg::PrecondKind;
using spcg::SolveResult;
using spcg::SpcgOptions;
using Clock = std::chrono::steady_clock;

constexpr double kTolerance = 1e-8;  // relative, on every solve
/// ||b - A x|| / ||b||, recomputed by the benchmark with the public spmv,
/// above which an answer counts as failed (100x the solver tolerance, room
/// for the gap between recurrence and true residual).
constexpr double kResidualBound = 1e-6;
// Set-up samples per run (median reported): at least kSetupRepeats, more
// while they fit in kSetupBudgetS, so a 50 ms set-up gets a steady median.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 15;
constexpr double kSetupBudgetS = 1.0;
constexpr index_t kIlukLevel = 2;

constexpr std::size_t kServeMinRequests = 1000;  // >= 10 samples beyond p99
constexpr std::size_t kServeOutstanding = 4;
constexpr int kServeWorkers = 2;
constexpr std::size_t kServeCacheCapacity = 16;

constexpr index_t kDistParts = 3;
constexpr std::uint32_t kDistLatencyUs = 500;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpcgOptions ilu0_options() {
  SpcgOptions o;
  o.pcg.tolerance = kTolerance;
  o.pcg.relative = true;
  return o;
}

SpcgOptions iluk_options() {
  SpcgOptions o = ilu0_options();
  o.preconditioner = PrecondKind::kIluK;
  o.fill_level = kIlukLevel;
  return o;
}

double relative_residual(const Csr<double>& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> ax(static_cast<std::size_t>(a.rows));
  spcg::spmv(a, x, std::span<double>(ax));
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double d = b[i] - ax[i];
    rr += d * d;
    bb += b[i] * b[i];
  }
  return std::sqrt(bb > 0.0 ? rr / bb : rr);
}

/// Check one answered solve from the outside and count it.
void tally(RunReport& rep, const Csr<double>& a, std::span<const double> b,
           const SolveResult<double>& s, bool reply_ok = true) {
  ++rep.attempted;
  const bool ok = reply_ok && s.converged() &&
                  static_cast<index_t>(s.x.size()) == a.rows &&
                  relative_residual(a, b, s.x) <= kResidualBound;
  if (!ok) ++rep.failed;
}

Metric median_metric(std::string name, std::string unit,
                     std::vector<double> samples, double scale = 1.0) {
  for (double& s : samples) s *= scale;
  Metric m{std::move(name), std::move(unit), median(samples), {}, ""};
  m.samples = std::move(samples);
  return m;
}

Metric exact_metric(std::string name, std::string unit, double value,
                    std::string note = "") {
  return Metric{std::move(name), std::move(unit), value, {}, std::move(note)};
}

/// The highest percentile with at least ten samples beyond it, capped at
/// 99 (0 when fewer than 20 samples leave no such tail).
double tail_percentile(std::size_t n) {
  if (n >= 1000) return 99.0;
  if (n >= 20) return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return 0.0;
}

/// The serve_* metrics over a workload's unit operation (a request on
/// serve_mixed; a solve, a suite member or a comm-reduced solve elsewhere).
void add_operation_metrics(RunReport& rep, const std::vector<double>& op_s,
                           double busy_s) {
  const std::string n = "n=" + std::to_string(op_s.size());
  const double tail = tail_percentile(op_s.size());
  rep.metrics.push_back(exact_metric("serve_rps", "1/s",
                                     static_cast<double>(op_s.size()) / busy_s,
                                     "operations / busy seconds, " + n));
  rep.metrics.push_back(median_metric("serve_p50_ms", "ms", op_s, 1e3));
  // Too few operations for a tail: report the median rather than the max.
  rep.metrics.push_back(
      tail > 0.0 ? exact_metric("serve_p99_ms", "ms",
                                percentile(op_s, tail) * 1e3,
                                "nearest-rank p" +
                                    std::to_string(tail).substr(0, 4) + ", " + n)
                 : median_metric("serve_p99_ms", "ms", op_s, 1e3));
}

/// Timed calls of `build`, each after an untimed `release` of the previous
/// result (one set-up alive at a time, so peak RSS is one set-up's and
/// freeing it is not timed).
std::vector<double> setup_timed(const std::function<void()>& release,
                                const std::function<void()>& build) {
  std::vector<double> s;
  while (s.size() < kSetupRepeats ||
         (s.size() < kSetupMaxRepeats && sum(s) < kSetupBudgetS)) {
    release();
    const auto t0 = Clock::now();
    build();
    s.push_back(secs_since(t0));
  }
  return s;
}

/// The fastest quarter of `v` (at least 2 samples, or all of a smaller
/// sample), ascending.
std::vector<double> fastest_quarter(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize(std::min(v.size(), std::max<std::size_t>(2, v.size() / 4)));
  return v;
}

/// Keep measuring while the next operation (predicted to take as long as
/// the median so far) still ends inside the budget; at least `min_ops`.
bool budget_left(Clock::time_point start, double seconds,
                 const std::vector<double>& op_s, std::size_t min_ops) {
  if (op_s.size() < min_ops) return true;
  return secs_since(start) + median(op_s) <= seconds;
}

// ---------------------------------------------------------------------------
// Traced member pass: the per-layer numbers of every workload.

/// Preconditioner decorator: a span and a duration sample per apply.
class TimedPreconditioner final : public Preconditioner<double> {
 public:
  TimedPreconditioner(const Preconditioner<double>& inner, SpanLog& log,
                      std::uint64_t request, std::vector<double>& samples)
      : inner_(inner), log_(log), request_(request), samples_(samples) {}

  void apply(std::span<const double> r, std::span<double> z) const override {
    const auto span = log_.span("precond.apply", request_);
    const auto t0 = Clock::now();
    inner_.apply(r, z);
    samples_.push_back(secs_since(t0));
  }
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }

 private:
  const Preconditioner<double>& inner_;
  SpanLog& log_;
  std::uint64_t request_;
  std::vector<double>& samples_;
};

struct Member {
  const Csr<double>* a = nullptr;
  std::vector<double> b;
  SpcgOptions opt;
};

/// Sums over the members of one traced pass.
struct LayerAccum {
  double setup_wall_s = 0.0;  // untraced spcg_setup
  double sparsify_s = 0.0, factorize_s = 0.0, inspect_s = 0.0;  // replay
  double nnz = 0.0, dropped = 0.0, a_hat_nnz = 0.0, factor_nnz = 0.0;
  double levels_lower = 0.0;
  std::vector<double> wf_reduction_pct;
  double iterations = 0.0;  // one SPCG solve per member
  double baseline_iterations = 0.0;  // one unsparsified solve per member
  double traced_iterations = 0.0;    // every traced solve
  std::vector<double> apply_s;
  double apply_bytes = 0.0;
  double pcg_traced_s = 0.0, pcg_untraced_s = 0.0;
  std::vector<double> spmv_s;
  double spmv_bytes = 0.0;
};

struct Replayed {
  spcg::SparsifyDecision<double> decision;
  spcg::TriangularFactors<double> factors;
  LevelSchedule l_schedule, u_schedule;
  index_t factor_nnz = 0;
  double sparsify_s = 0.0, factorize_s = 0.0, inspect_s = 0.0;
};

/// spcg_setup's three phases called one by one through their public entry
/// points, each inside a span.
Replayed replay_setup(const Csr<double>& a, const SpcgOptions& opt,
                      SpanLog& log, std::uint64_t request) {
  Replayed r;
  const auto envelope = log.span("setup", request);
  auto t0 = Clock::now();
  {
    const auto span = log.span("sparsify", request);
    r.decision = spcg::wavefront_aware_sparsify(a, opt.sparsify);
  }
  r.sparsify_s = secs_since(t0);
  t0 = Clock::now();
  spcg::IluResult<double> f;
  {
    const auto span = log.span("factorize", request);
    const Csr<double>& a_hat = r.decision.chosen.a_hat;
    f = opt.preconditioner == PrecondKind::kIlu0
            ? spcg::ilu0(a_hat, opt.ilu)
            : spcg::iluk(a_hat, opt.fill_level, opt.ilu, opt.max_row_fill);
    r.factor_nnz = f.lu.nnz();
  }
  r.factorize_s = secs_since(t0);
  t0 = Clock::now();
  {
    const auto span = log.span("inspect", request);
    r.factors = spcg::split_lu(f);
    r.l_schedule = spcg::level_schedule(r.factors.l, spcg::Triangle::kLower);
    r.u_schedule = spcg::level_schedule(r.factors.u, spcg::Triangle::kUpper);
  }
  r.inspect_s = secs_since(t0);
  return r;
}

/// Bytes one ILU apply moves, computed from array sizes: both factors
/// (values + column indices + row pointers) once, and r, y (written and
/// read back) and z once each.
double apply_bytes(const spcg::TriangularFactors<double>& f) {
  const double n = f.l.rows;
  return 12.0 * (f.l.nnz() + f.u.nnz()) + 8.0 * (n + 1.0) + 32.0 * n;
}

/// Bytes one spmv moves, computed: A once, x and y once each.
double spmv_bytes(const Csr<double>& a) {
  return 12.0 * a.nnz() + 4.0 * (a.rows + 1.0) + 16.0 * a.rows;
}

/// For each member: an untraced spcg_setup against the traced replay (order
/// alternating by member), untraced and traced PCG on the same right-hand
/// side (order alternating), timed spmv repetitions, and the unsparsified
/// baseline for iteration inflation. Every solve is checked.
void traced_member_pass(const std::vector<Member>& members, SpanLog& log,
                        LayerAccum& acc, RunReport& rep) {
  // One discarded setup first: the first setup of a process pays the
  // allocator's heap growth, which would otherwise land on one side of the
  // replay comparison.
  if (!members.empty()) spcg::spcg_setup(*members[0].a, members[0].opt);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Member& m = members[i];
    const Csr<double>& a = *m.a;
    const std::span<const double> b(m.b);
    const std::uint64_t request = i + 1;
    const bool even = i % 2 == 0;

    double wall = 0.0;
    auto untraced_setup = [&] {
      const auto t0 = Clock::now();
      const spcg::SpcgSetup<double> s = spcg::spcg_setup(a, m.opt);
      wall = secs_since(t0);
    };
    std::optional<Replayed> rp;
    if (even) untraced_setup();
    rp.emplace(replay_setup(a, m.opt, log, request));
    if (!even) untraced_setup();

    acc.setup_wall_s += wall;
    acc.sparsify_s += rp->sparsify_s;
    acc.factorize_s += rp->factorize_s;
    acc.inspect_s += rp->inspect_s;
    acc.nnz += a.nnz();
    acc.dropped += rp->decision.chosen.dropped;
    acc.a_hat_nnz += rp->decision.chosen.a_hat.nnz();
    acc.factor_nnz += rp->factor_nnz;
    acc.levels_lower += rp->l_schedule.num_levels();
    acc.wf_reduction_pct.push_back(rp->decision.reduction_percent);
    const double bytes_per_apply = apply_bytes(rp->factors);

    const IluPreconditioner<double> pre(
        std::move(rp->factors), std::move(rp->l_schedule),
        std::move(rp->u_schedule), m.opt.executor);
    const std::size_t applies_before = acc.apply_s.size();
    const TimedPreconditioner timed(pre, log, request, acc.apply_s);
    SolveResult<double> traced;
    // Few members: a second, reversed pair, so the overhead estimate is not
    // one solve's noise.
    const std::size_t pairs = members.size() < 4 ? 2 : 1;
    for (std::size_t p = 0; p < pairs; ++p) {
      SolveResult<double> plain;
      auto run_plain = [&] {
        const auto t0 = Clock::now();
        plain = spcg::pcg(a, b, pre, m.opt.pcg);
        acc.pcg_untraced_s += secs_since(t0);
      };
      auto run_traced = [&] {
        const auto span = log.span("pcg", request);
        const auto t0 = Clock::now();
        traced = spcg::pcg(a, b, timed, m.opt.pcg);
        acc.pcg_traced_s += secs_since(t0);
      };
      if ((i + p) % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      tally(rep, a, b, plain);
      tally(rep, a, b, traced);
      if (plain.iterations != traced.iterations) rep.invariants_ok = false;
      acc.traced_iterations += traced.iterations;
    }
    acc.iterations += traced.iterations;
    acc.apply_bytes += bytes_per_apply *
                       static_cast<double>(acc.apply_s.size() - applies_before);

    // Enough repetitions that the smallest members still time ~1 ms.
    const int reps = std::clamp(static_cast<int>(2e7 / std::max(1, a.nnz())),
                                3, 200);
    std::vector<double> y(static_cast<std::size_t>(a.rows));
    for (int r = 0; r < reps; ++r) {
      const auto span = log.span("spmv", request);
      const auto t0 = Clock::now();
      spcg::spmv(a, std::span<const double>(traced.x), std::span<double>(y));
      acc.spmv_s.push_back(secs_since(t0));
    }
    acc.spmv_bytes += reps * spmv_bytes(a);

    SpcgOptions base = m.opt;
    base.sparsify_enabled = false;
    spcg::SpcgSetup<double> bs = spcg::spcg_setup(a, base);
    const IluPreconditioner<double> bpre(std::move(bs.factors),
                                         std::move(bs.l_schedule),
                                         std::move(bs.u_schedule));
    const SolveResult<double> br = spcg::pcg(a, b, bpre, base.pcg);
    tally(rep, a, b, br);
    acc.baseline_iterations += br.iterations;
  }
}

void add_layer_metrics(RunReport& rep, const LayerAccum& acc) {
  const double apply_total = sum(acc.apply_s);
  const double spmv_total = sum(acc.spmv_s);
  const double replay = acc.sparsify_s + acc.factorize_s + acc.inspect_s;
  auto& m = rep.metrics;
  m.push_back(exact_metric("sparsify.s", "s", acc.sparsify_s));
  m.push_back(exact_metric("sparsify.drop_ratio", "ratio",
                           acc.dropped / acc.nnz));
  m.push_back(median_metric("sparsify.wf_reduction", "%",
                            acc.wf_reduction_pct));
  m.push_back(exact_metric("sparsify.iter_inflation", "ratio",
                           acc.iterations / acc.baseline_iterations,
                           "SPCG / unsparsified PCG iterations"));
  m.push_back(exact_metric("factorize.s", "s", acc.factorize_s));
  m.push_back(exact_metric("factor.fill_ratio", "ratio",
                           acc.factor_nnz / acc.a_hat_nnz,
                           "nnz(L+U) / nnz(A_hat)"));
  m.push_back(exact_metric("inspect.s", "s", acc.inspect_s));
  m.push_back(exact_metric("levels.lower", "count", acc.levels_lower));
  m.push_back(median_metric("precond.apply_us", "us", acc.apply_s, 1e6));
  m.push_back(exact_metric("precond.share", "ratio",
                           apply_total / acc.pcg_traced_s,
                           "apply time / traced PCG time"));
  m.push_back(exact_metric("precond.gbs", "GB/s",
                           acc.apply_bytes / apply_total / 1e9,
                           "computed from array sizes"));
  m.push_back(median_metric("spmv_us", "us", acc.spmv_s, 1e6));
  m.push_back(exact_metric("spmv.gbs", "GB/s",
                           acc.spmv_bytes / spmv_total / 1e9,
                           "computed from array sizes"));
  m.push_back(exact_metric("pcg.iterations", "count", acc.iterations));
  m.push_back(exact_metric("pcg.iter_us", "us",
                           acc.pcg_traced_s / acc.traced_iterations * 1e6));
  m.push_back(exact_metric("pcg.other_us", "us",
                           (acc.pcg_traced_s - apply_total) /
                               acc.traced_iterations * 1e6,
                           "SpMV + BLAS-1 + reductions per iteration"));
  m.push_back(exact_metric(
      "trace.overhead_pct", "%",
      (acc.pcg_traced_s - acc.pcg_untraced_s) / acc.pcg_untraced_s * 100.0,
      "traced vs untraced PCG, same inputs"));
  m.push_back(exact_metric("trace.replay_ratio", "ratio",
                           replay / acc.setup_wall_s,
                           "phase replay / spcg_setup wall"));
  rep.counts.emplace_back("replay.members", static_cast<std::int64_t>(
                                                acc.wf_reduction_pct.size()));
  rep.counts.emplace_back("replay.factor_nnz",
                          static_cast<std::int64_t>(acc.factor_nnz));
  rep.counts.emplace_back("replay.levels_lower",
                          static_cast<std::int64_t>(acc.levels_lower));
  rep.counts.emplace_back("traced.pcg_iterations",
                          static_cast<std::int64_t>(acc.iterations));
  rep.counts.emplace_back("baseline.pcg_iterations",
                          static_cast<std::int64_t>(acc.baseline_iterations));
}

/// Span self times per layer, the host roof, and the triad sizing.
void add_trace_metrics(RunReport& rep, const SpanLog& log) {
  const auto totals = log.totals();
  auto self_of = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* n : names) {
      const auto it = totals.find(n);
      if (it != totals.end()) s += it->second.self_s;
    }
    return s;
  };
  auto& m = rep.metrics;
  m.push_back(exact_metric("self.setup_s", "s", self_of({"setup"})));
  m.push_back(exact_metric("self.sparsify_s", "s", self_of({"sparsify"})));
  m.push_back(exact_metric("self.factorize_s", "s", self_of({"factorize"})));
  m.push_back(exact_metric("self.inspect_s", "s", self_of({"inspect"})));
  m.push_back(exact_metric("self.pcg_s", "s", self_of({"pcg"})));
  m.push_back(exact_metric("self.precond_s", "s", self_of({"precond.apply"})));
  m.push_back(exact_metric("self.spmv_s", "s", self_of({"spmv"})));
  m.push_back(exact_metric("self.serve_s", "s",
                           self_of({"serve.warmup", "serve.request"})));
  m.push_back(exact_metric("self.dist_s", "s",
                           self_of({"dist.construct", "dist.solve"})));

  const HostDescriptor host = describe_host();
  const std::size_t array_bytes = 4 * host.l3_bytes;
  m.push_back(exact_metric("host.triad_gbs", "GB/s", triad_gbs(array_bytes, 5),
                           "single-thread triad, 3 arrays of " +
                               std::to_string(array_bytes >> 20) + " MiB"));
}

}  // namespace

// ---------------------------------------------------------------------------
// large_pde: one system whose working set leaves the last-level cache.

RunReport run_large_pde(const RunConfig& cfg) {
  RunReport rep;
  const Csr<double> a = large_pde_matrix(kLargePdeFieldSeed);
  const SpcgOptions opt = ilu0_options();

  if (cfg.trace) {
    const std::vector<Member> members{
        Member{&a, workload_rhs(a, cfg.seed, 0), opt}};
    LayerAccum acc;
    traced_member_pass(members, *cfg.log, acc, rep);
    add_layer_metrics(rep, acc);
    add_trace_metrics(rep, *cfg.log);
    return rep;
  }

  const auto start = Clock::now();
  std::optional<spcg::SpcgSetup<double>> setup;
  const std::vector<double> setup_s =
      setup_timed([&] { setup.reset(); },
                  [&] { setup = spcg::spcg_setup(a, opt); });
  rep.counts.emplace_back("factor_nnz", setup->factor_nnz);
  rep.counts.emplace_back("levels.lower", setup->wavefronts_factor);
  rep.counts.emplace_back("sparsify.dropped", setup->decision->chosen.dropped);
  const IluPreconditioner<double> pre(std::move(setup->factors),
                                      std::move(setup->l_schedule),
                                      std::move(setup->u_schedule),
                                      opt.executor);

  std::vector<double> solve_s;
  for (std::uint64_t k = 0; budget_left(start, cfg.seconds, solve_s, 3); ++k) {
    const std::vector<double> b = workload_rhs(a, cfg.seed, k);
    const auto t0 = Clock::now();
    const SolveResult<double> r =
        spcg::pcg(a, std::span<const double>(b), pre, opt.pcg);
    solve_s.push_back(secs_since(t0));
    tally(rep, a, b, r);
    rep.counts.emplace_back("pcg.iterations", r.iterations);
  }

  rep.metrics.push_back(median_metric("setup_s", "s", setup_s));
  rep.metrics.push_back(median_metric("solve_s", "s", solve_s));
  rep.metrics.push_back(median_metric("classic_solve_s", "s", solve_s));
  add_operation_metrics(rep, solve_s, sum(solve_s));
  rep.metrics.push_back(exact_metric("peak_rss_mb", "MiB", peak_rss_mb()));
  return rep;
}

// ---------------------------------------------------------------------------
// suite_sweep: every suite matrix cold under SPCG-ILU(0), plus two ILU(K=2)
// members; setup-bound and cache-resident.

RunReport run_suite_sweep(const RunConfig& cfg) {
  RunReport rep;
  std::vector<spcg::GeneratedMatrix> suite;
  for (index_t id = 0; id < spcg::suite_size(); ++id)
    suite.push_back(spcg::generate_suite_matrix(id));
  std::vector<Member> members;
  for (const spcg::GeneratedMatrix& g : suite)
    members.push_back(Member{
        &g.a, workload_rhs(g.a, cfg.seed, static_cast<std::uint64_t>(g.spec.id)),
        ilu0_options()});
  for (const char* name : {"ac_band_4000_16", "econ_1500_8"}) {
    const spcg::GeneratedMatrix& g =
        suite[static_cast<std::size_t>(suite_id(name))];
    members.push_back(Member{
        &g.a, workload_rhs(g.a, cfg.seed, 1000 + g.spec.id), iluk_options()});
  }

  if (cfg.trace) {
    LayerAccum acc;
    traced_member_pass(members, *cfg.log, acc, rep);
    add_layer_metrics(rep, acc);
    add_trace_metrics(rep, *cfg.log);
    return rep;
  }

  // Per member, one sample per sweep. Reported totals are sums over members
  // of per-member medians, so one slow factorization in one sweep (the
  // ILU(K) members take seconds) does not move the figure.
  std::vector<std::vector<double>> setup_s(members.size()),
      solve_s(members.size());
  std::vector<double> sweep_s;
  std::int64_t first_iterations = -1;
  const auto start = Clock::now();
  while (budget_left(start, cfg.seconds, sweep_s, 3)) {
    const auto sweep_t0 = Clock::now();
    std::int64_t iterations = 0, levels = 0, factor_nnz = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Member& m = members[i];
      const auto t0 = Clock::now();
      spcg::SpcgSetup<double> s = spcg::spcg_setup(*m.a, m.opt);
      setup_s[i].push_back(secs_since(t0));
      levels += s.wavefronts_factor;
      factor_nnz += s.factor_nnz;
      const auto t1 = Clock::now();
      const IluPreconditioner<double> pre(std::move(s.factors),
                                          std::move(s.l_schedule),
                                          std::move(s.u_schedule),
                                          m.opt.executor);
      const SolveResult<double> r =
          spcg::pcg(*m.a, std::span<const double>(m.b), pre, m.opt.pcg);
      solve_s[i].push_back(secs_since(t1));
      tally(rep, *m.a, m.b, r);
      iterations += r.iterations;
    }
    sweep_s.push_back(secs_since(sweep_t0));
    // Same inputs every sweep, so the counts must repeat exactly.
    if (first_iterations >= 0 && iterations != first_iterations)
      rep.invariants_ok = false;
    first_iterations = iterations;
    rep.counts.emplace_back("sweep.pcg_iterations", iterations);
    rep.counts.emplace_back("sweep.levels_lower", levels);
    rep.counts.emplace_back("sweep.factor_nnz", factor_nnz);
  }

  std::vector<double> setup_med, solve_med, member_med;
  for (std::size_t i = 0; i < members.size(); ++i) {
    setup_med.push_back(median(setup_s[i]));
    solve_med.push_back(median(solve_s[i]));
    member_med.push_back(setup_med.back() + solve_med.back());
  }
  const std::string note =
      "sum of per-member medians over " + std::to_string(sweep_s.size()) +
      " sweeps";
  rep.metrics.push_back(exact_metric("setup_s", "s", sum(setup_med), note));
  rep.metrics.push_back(exact_metric("solve_s", "s", sum(solve_med), note));
  rep.metrics.push_back(
      exact_metric("classic_solve_s", "s", sum(solve_med), note));
  // Throughput and member latency over the 107 ILU(0) members, the paper's
  // dataset. The two ILU(K=2) members count in setup_s and solve_s; inside
  // serve_rps the seconds-long econ_1500_8 factorization would swamp it.
  member_med.resize(static_cast<std::size_t>(spcg::suite_size()));
  add_operation_metrics(rep, member_med, sum(member_med));
  rep.metrics.push_back(exact_metric("peak_rss_mb", "MiB", peak_rss_mb()));
  return rep;
}

// ---------------------------------------------------------------------------
// serve_mixed: SolveService under a closed loop over a pool larger than its
// setup cache, with repeats and values-only drifts.

namespace {

using Pool = std::vector<std::shared_ptr<const Csr<double>>>;

Pool make_pool() {
  Pool p;
  for (const index_t id : serve_pool_ids())
    p.push_back(std::make_shared<const Csr<double>>(
        spcg::generate_suite_matrix(id).a));
  return p;
}

using Service = spcg::SolveService<double>;

spcg::ServiceRequest<double> make_request(std::shared_ptr<const Csr<double>> a,
                                          std::vector<double> b) {
  spcg::ServiceRequest<double> req;
  req.a = std::move(a);
  req.b = std::move(b);
  req.options = ilu0_options();
  return req;
}

/// New service, one request per pool matrix, wait for all: the pool
/// warm-up, i.e. serve_mixed's set-up.
std::unique_ptr<Service> warm_service(const Pool& pool, std::uint64_t seed,
                                      RunReport& rep, SpanLog& log) {
  const auto span = log.span("serve.warmup");
  auto svc = std::make_unique<Service>(
      Service::Options(kServeWorkers, kServeCacheCapacity));
  std::vector<Service::Ticket> tickets;
  std::vector<std::vector<double>> rhs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    rhs.push_back(workload_rhs(*pool[i], seed, 5000 + i));
    tickets.push_back(svc->submit(make_request(pool[i], rhs.back())));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const spcg::ServiceReply<double> r = tickets[i].reply.get();
    tally(rep, *pool[i], rhs[i], r.solve,
          r.status == spcg::RequestStatus::kOk);
  }
  return svc;
}

struct ServeLoop {
  std::vector<double> latency_s, queue_s, hit_s, refresh_s, miss_s,
      solve_s;
  double busy_s = 0.0;
  std::uint64_t fallbacks = 0;
};

/// Closed loop from this thread: keep kServeOutstanding requests in flight
/// until the budget is spent and at least kServeMinRequests were sent.
ServeLoop serve_loop(Service& svc, const Pool& pool, std::uint64_t seed,
                     double seconds, RunReport& rep, SpanLog& log) {
  struct Pending {
    std::uint64_t id;
    Service::Ticket ticket;
    Clock::time_point sent;
    std::shared_ptr<const Csr<double>> a;
    std::vector<double> b;
  };
  RequestStream stream(seed, pool.size());
  std::deque<Pending> inflight;
  ServeLoop out;
  std::size_t sent = 0;
  const auto start = Clock::now();
  auto want_more = [&] {
    return sent < kServeMinRequests || secs_since(start) < seconds;
  };
  auto submit_next = [&] {
    const RequestPlan plan = stream.next();
    const auto& base = pool[static_cast<std::size_t>(plan.pool_slot)];
    auto a = plan.drift ? std::make_shared<const Csr<double>>(
                              drift_matrix(*base, plan.drift_factor))
                        : base;
    std::vector<double> b = spcg::make_rhs(*a, plan.rhs_seed);
    Pending p{++sent, {}, Clock::now(), a, b};
    p.ticket = svc.submit(make_request(std::move(a), std::move(b)));
    inflight.push_back(std::move(p));
  };

  Clock::time_point last_done = start;
  while (true) {
    while (inflight.size() < kServeOutstanding && want_more()) submit_next();
    if (inflight.empty()) break;
    auto ready = std::find_if(inflight.begin(), inflight.end(), [](Pending& p) {
      return p.ticket.reply.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    if (ready == inflight.end()) {
      inflight.front().ticket.reply.wait_for(std::chrono::microseconds(20));
      continue;
    }
    last_done = Clock::now();
    Pending done = std::move(*ready);
    inflight.erase(ready);
    const spcg::ServiceReply<double> r = done.ticket.reply.get();
    log.record("serve.request", done.id, done.sent, last_done);
    // Refill before checking, so the check is client think time off the
    // critical path of the in-flight requests.
    while (inflight.size() < kServeOutstanding && want_more()) submit_next();
    tally(rep, *done.a, done.b, r.solve, r.status == spcg::RequestStatus::kOk);
    const double lat = std::chrono::duration<double>(last_done - done.sent)
                           .count();
    out.latency_s.push_back(lat);
    out.queue_s.push_back(r.queue_seconds);
    out.solve_s.push_back(r.solve_seconds);
    if (r.used_fallback) ++out.fallbacks;
    if (r.setup_cache_hit) {
      out.hit_s.push_back(lat);
    } else if (r.setup_pattern_refreshed) {
      out.refresh_s.push_back(lat);
    } else {
      out.miss_s.push_back(lat);
    }
  }
  out.busy_s = std::chrono::duration<double>(last_done - start).count();
  return out;
}

}  // namespace

RunReport run_serve_mixed(const RunConfig& cfg) {
  RunReport rep;
  const Pool pool = make_pool();
  SpanLog& log = *cfg.log;

  std::unique_ptr<Service> svc;
  const std::vector<double> setup_s =
      setup_timed([&] { svc.reset(); },
                  [&] { svc = warm_service(pool, cfg.seed, rep, log); });
  const spcg::SetupCacheStats before = svc->stats().cache;
  const ServeLoop loop = serve_loop(*svc, pool, cfg.seed, cfg.seconds, rep, log);
  const spcg::SetupCacheStats after = svc->stats().cache;
  svc->shutdown();

  rep.counts.emplace_back("requests", static_cast<std::int64_t>(
                                          loop.latency_s.size()));
  rep.counts.emplace_back("outcome.hit", static_cast<std::int64_t>(
                                             loop.hit_s.size()));
  rep.counts.emplace_back("outcome.refresh", static_cast<std::int64_t>(
                                                 loop.refresh_s.size()));
  rep.counts.emplace_back("outcome.miss", static_cast<std::int64_t>(
                                              loop.miss_s.size()));
  rep.counts.emplace_back("fallbacks",
                          static_cast<std::int64_t>(loop.fallbacks));

  if (cfg.trace) {
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    auto& m = rep.metrics;
    m.push_back(exact_metric("cache.hit_ratio", "ratio",
                             hits / std::max(1.0, hits + misses)));
    m.push_back(exact_metric("cache.partial_hits", "count",
                             static_cast<double>(after.partial_hits -
                                                 before.partial_hits)));
    m.push_back(exact_metric("cache.misses", "count", misses));
    m.push_back(exact_metric("cache.evictions", "count",
                             static_cast<double>(after.evictions -
                                                 before.evictions)));
    m.push_back(median_metric("serve.queue_ms", "ms", loop.queue_s, 1e3));
    m.push_back(median_metric("serve.hit_ms", "ms", loop.hit_s, 1e3));
    m.push_back(median_metric("serve.refresh_ms", "ms", loop.refresh_s, 1e3));
    m.push_back(median_metric("serve.miss_ms", "ms", loop.miss_s, 1e3));
    m.push_back(exact_metric("serve.fallbacks", "count",
                             static_cast<double>(loop.fallbacks)));
    std::vector<Member> members;
    for (std::size_t i = 0; i < pool.size(); ++i)
      members.push_back(Member{pool[i].get(),
                               workload_rhs(*pool[i], cfg.seed, i),
                               ilu0_options()});
    LayerAccum acc;
    traced_member_pass(members, log, acc, rep);
    add_layer_metrics(rep, acc);
    add_trace_metrics(rep, log);
    return rep;
  }

  // Mean, not median, PCG time per request: the per-request times form a
  // mixture of 24 matrices whose median jumps between clusters as the
  // number of requests that fit the budget changes.
  const double mean_solve =
      sum(loop.solve_s) / static_cast<double>(loop.solve_s.size());
  rep.metrics.push_back(median_metric("setup_s", "s", setup_s));
  rep.metrics.push_back(exact_metric("solve_s", "s", mean_solve,
                                     "mean PCG seconds per request"));
  rep.metrics.push_back(exact_metric("classic_solve_s", "s", mean_solve,
                                     "mean PCG seconds per request"));
  add_operation_metrics(rep, loop.latency_s, loop.busy_s);
  rep.metrics.push_back(exact_metric("peak_rss_mb", "MiB", peak_rss_mb()));
  return rep;
}

// ---------------------------------------------------------------------------
// dist_latency: DistSolverSession at P=3 over the in-process transport with
// injected collective latency; classic and comm-reduced bodies.

RunReport run_dist_latency(const RunConfig& cfg) {
  RunReport rep;
  SpanLog& log = *cfg.log;
  const auto a = std::make_shared<const Csr<double>>(dist_matrix());
  spcg::DistOptions classic;
  classic.parts = kDistParts;
  classic.options = ilu0_options();
  classic.transport.inject_latency_us = kDistLatencyUs;
  classic.body = spcg::DistBody::kClassic;
  spcg::DistOptions reduced = classic;
  reduced.body = spcg::DistBody::kCommReduced;

  using Session = spcg::DistSolverSession<double>;
  std::shared_ptr<spcg::SetupCache<double>> cache;
  std::unique_ptr<Session> classic_session;
  const std::vector<double> setup_s = setup_timed(
      [&] { classic_session.reset(); },
      [&] {
        const auto span = log.span("dist.construct");
        cache = std::make_shared<spcg::SetupCache<double>>();
        classic_session = std::make_unique<Session>(a, classic, cache);
      });
  // Same partition and subdomain options: every setup comes from the cache.
  const Session reduced_session(a, reduced, cache);
  if (reduced_session.subdomain_cache_hits() != kDistParts)
    rep.invariants_ok = false;

  // One right-hand side per run, so every solve does the same work and the
  // iteration counts must repeat exactly.
  const std::vector<double> b = dist_rhs(*a, cfg.seed);
  std::vector<double> classic_s, reduced_s, wait_s, hidden_s;
  spcg::DistSolveStats reduced_stats;
  std::int64_t first_classic = -1, first_reduced = -1;
  auto solve_pair = [&](std::uint64_t k, bool timed) {
    auto solve = [&](const Session& s, std::vector<double>& times) {
      const auto span = log.span("dist.solve", k + 1);
      const auto t0 = Clock::now();
      spcg::DistSolveResult<double> r = s.solve(b);
      if (timed) times.push_back(secs_since(t0));
      tally(rep, *a, b, r.solve);
      return r;
    };
    const auto rc = solve(*classic_session, classic_s);
    const auto rr = solve(reduced_session, reduced_s);
    // Comm-reduced: one fused all-reduce per iteration plus startup and exit.
    if (rr.stats.allreduces !=
        static_cast<std::uint64_t>(rr.solve.iterations) + 2)
      rep.invariants_ok = false;
    if (first_classic >= 0 && (rc.solve.iterations != first_classic ||
                               rr.solve.iterations != first_reduced))
      rep.invariants_ok = false;
    first_classic = rc.solve.iterations;
    first_reduced = rr.solve.iterations;
    if (!timed) return;
    reduced_stats = rr.stats;
    wait_s.push_back(rr.stats.max_wait_seconds);
    hidden_s.push_back(rr.stats.overlap_hidden_seconds);
    rep.counts.emplace_back("classic.iterations", rc.solve.iterations);
    rep.counts.emplace_back("classic.allreduces",
                            static_cast<std::int64_t>(rc.stats.allreduces));
    rep.counts.emplace_back("reduced.iterations", rr.solve.iterations);
    rep.counts.emplace_back("reduced.allreduces",
                            static_cast<std::int64_t>(rr.stats.allreduces));
  };
  // Untimed warm-up: the first solves of a session pay for its rank
  // threads' first touches.
  solve_pair(0, false);
  const auto start = Clock::now();
  const std::size_t min_pairs = cfg.trace ? 1 : 3;
  for (std::uint64_t k = 1; budget_left(start, cfg.seconds, reduced_s, min_pairs);
       ++k)
    solve_pair(k, true);

  if (cfg.trace) {
    auto& m = rep.metrics;
    m.push_back(exact_metric("dist.allreduces", "count",
                             static_cast<double>(reduced_stats.allreduces),
                             "comm-reduced, one solve"));
    m.push_back(exact_metric("dist.halo_mb", "MB",
                             static_cast<double>(reduced_stats.halo_bytes) / 1e6,
                             "comm-reduced, one solve"));
    m.push_back(median_metric("dist.wait_s", "s", wait_s));
    m.push_back(median_metric("dist.overlap_hidden_s", "s", hidden_s));
    // The subdomain interior blocks, each as its own system.
    std::vector<Member> members;
    const auto& locals = classic_session->setup().locals;
    for (std::size_t i = 0; i < locals.size(); ++i)
      members.push_back(Member{
          &locals[i].a_interior,
          workload_rhs(locals[i].a_interior, cfg.seed, 9000 + i),
          ilu0_options()});
    LayerAccum acc;
    traced_member_pass(members, log, acc, rep);
    add_layer_metrics(rep, acc);
    add_trace_metrics(rep, log);
    return rep;
  }

  // The three rank threads meet at every collective, so a neighbour process
  // that takes one core for a while stalls all of them: the same solve then
  // takes up to 2x as long, in bursts of several solves. Such delay only
  // adds time, so every solve time here is over the fastest quarter of the
  // run's solves.
  const std::vector<double> classic_fast = fastest_quarter(classic_s);
  const std::vector<double> reduced_fast = fastest_quarter(reduced_s);
  const std::string kept = "fastest " + std::to_string(reduced_fast.size()) +
                           " of " + std::to_string(reduced_s.size()) + " solves";
  rep.metrics.push_back(median_metric("setup_s", "s", setup_s));
  rep.metrics.push_back(median_metric("solve_s", "s", reduced_fast));
  rep.metrics.push_back(median_metric("classic_solve_s", "s", classic_fast));
  add_operation_metrics(rep, reduced_fast, sum(reduced_fast));
  for (Metric& m : rep.metrics)
    if (m.name != "setup_s") m.note = m.note.empty() ? kept : m.note + ", " + kept;
  rep.metrics.push_back(exact_metric("peak_rss_mb", "MiB", peak_rss_mb()));
  return rep;
}

}  // namespace perfbench
