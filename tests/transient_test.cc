// Tests for the transient-solve subsystem (src/transient/): the values-only
// numeric refactorization fast path, TransientSession step classification,
// warm starts, step policies, cache adoption, and the zero-allocation
// steady-step guarantee.
//
// Fixture naming is load-bearing: TransientVerify runs under the CI verify
// job (`ctest -R 'AllocAudit|Verify'`) alongside the spcg-verify corpus
// sweep, and TransientAllocAudit runs in the SPCG_ALLOC_AUDIT build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/alloc_audit.h"
#include "analysis/verify.h"
#include "core/spcg.h"
#include "gen/generators.h"
#include "runtime/runtime.h"
#include "solver/pcg.h"
#include "transient/refactorize.h"
#include "transient/step_policy.h"
#include "transient/transient.h"

namespace spcg {
namespace {

// A single candidate ratio makes the sparsification pattern decision
// invariant under uniform off-diagonal scaling: the chosen ratio is forced
// and the drop ordering (by magnitude) is preserved, so a cold setup on the
// scaled matrix picks the same pattern — the precondition for the bitwise
// refactorize gate.
SpcgOptions transient_options(PrecondKind kind = PrecondKind::kIlu0) {
  SpcgOptions opt;
  opt.preconditioner = kind;
  if (kind == PrecondKind::kIluK) opt.fill_level = 1;
  opt.sparsify.ratios = {10.0};
  opt.pcg.tolerance = 1e-10;
  return opt;
}

// Scale every off-diagonal by `factor`, leaving the diagonal alone. Preserves
// the pattern and the off-diagonal magnitude ordering.
Csr<double> scale_offdiag(const Csr<double>& a, double factor) {
  Csr<double> out = a;
  for (index_t i = 0; i < out.rows; ++i)
    for (index_t k = out.rowptr[static_cast<std::size_t>(i)];
         k < out.rowptr[static_cast<std::size_t>(i) + 1]; ++k)
      if (out.colind[static_cast<std::size_t>(k)] != i)
        out.values[static_cast<std::size_t>(k)] *= factor;
  return out;
}

template <class V>
bool bitwise_equal(const std::vector<V>& x, const std::vector<V>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(V)) == 0);
}

// ---------------------------------------------------------- refactorization

TEST(TransientVerify, RefactorizeReproducesColdSetupIlu0) {
  const Csr<double> a = gen_varcoef2d(20, 20, 1.0, 3);
  const analysis::Diagnostics d =
      analysis::verify_numeric_refactorize(a, transient_options());
  EXPECT_TRUE(d.ok()) << d;
}

TEST(TransientVerify, RefactorizeReproducesColdSetupIluK) {
  const Csr<double> a = gen_varcoef2d(18, 18, 2.0, 5);
  const analysis::Diagnostics d = analysis::verify_numeric_refactorize(
      a, transient_options(PrecondKind::kIluK));
  EXPECT_TRUE(d.ok()) << d;
}

TEST(TransientVerify, RefreshOnNewValuesMatchesColdSetupBitwise) {
  // Same pattern, new values: refreshing the old setup must produce factors
  // bit-identical to a cold setup on the new matrix (single-ratio options +
  // uniform off-diagonal scaling keep the pattern decision fixed).
  const SpcgOptions opt = transient_options();
  const Csr<double> a1 = gen_varcoef2d(16, 16, 1.5, 11);
  const Csr<double> a2 = scale_offdiag(a1, 1.25);

  SpcgSetup<double> live = spcg_setup(a1, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(live, a1);
  refresh_setup_numerics(live, a2, opt, ws);

  const SpcgSetup<double> cold = spcg_setup(a2, opt);
  EXPECT_TRUE(bitwise_equal(live.factorization.lu.values,
                            cold.factorization.lu.values));
  EXPECT_TRUE(bitwise_equal(live.factorization.diag_pos,
                            cold.factorization.diag_pos));
  EXPECT_TRUE(bitwise_equal(live.factors.l.values, cold.factors.l.values));
  EXPECT_TRUE(bitwise_equal(live.factors.u.values, cold.factors.u.values));
  EXPECT_EQ(live.factorization.breakdown, cold.factorization.breakdown);
}

TEST(TransientVerify, RefreshRejectsShapeMismatch) {
  const SpcgOptions opt = transient_options();
  const Csr<double> a = gen_poisson2d(10, 10);
  SpcgSetup<double> setup = spcg_setup(a, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(setup, a);
  const Csr<double> other = gen_poisson2d(11, 11);
  EXPECT_THROW(refresh_setup_numerics(setup, other, opt, ws), Error);
}

// ------------------------------------------------------------------ session

TEST(TransientSession, ValuesOnlyUpdateRefactorizesWithoutRebuild) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  Csr<double> a = gen_varcoef2d(16, 16, 1.5, 7);
  const std::vector<double> b = make_rhs(a, 1);

  TransientSession<double> session(a, topt);
  const TransientStepStats s0 = session.step(b);
  EXPECT_TRUE(s0.symbolic_rebuild);
  EXPECT_FALSE(s0.refactorized);

  // Mutate values in place and re-present: numeric refresh only.
  for (double& v : a.values) v *= 1.125;
  session.update_matrix(a);
  const TransientStepStats s1 = session.step(b);
  EXPECT_FALSE(s1.symbolic_rebuild);
  EXPECT_TRUE(s1.refactorized);
  EXPECT_EQ(session.stats().symbolic_rebuilds, 1);
  EXPECT_EQ(session.stats().refactorize_steps, 1);

  // The refreshed factors must equal a cold setup on the mutated matrix.
  const SpcgSetup<double> cold = spcg_setup(a, topt.base);
  EXPECT_TRUE(bitwise_equal(session.setup().factorization.lu.values,
                            cold.factorization.lu.values));
}

TEST(TransientSession, IdenticalMatrixUpdateIsANoOp) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  const Csr<double> a = gen_poisson2d(14, 14);
  const std::vector<double> b = make_rhs(a, 2);
  TransientSession<double> session(a, topt);
  session.step(b);
  session.update_matrix(a);  // bit-identical
  const TransientStepStats s1 = session.step(b);
  EXPECT_FALSE(s1.symbolic_rebuild);
  EXPECT_FALSE(s1.refactorized);
  EXPECT_EQ(s1.refactorize_seconds, 0.0);
}

TEST(TransientSession, PatternChangeTriggersSymbolicRebuild) {
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  TransientSession<double> session(
      std::make_shared<const Csr<double>>(gen_poisson2d(12, 12)), topt);
  session.step(std::vector<double>(144, 1.0));

  auto wider = std::make_shared<const Csr<double>>(gen_poisson2d(16, 9));
  session.update_matrix(wider);
  const TransientStepStats s1 = session.step(std::vector<double>(144, 1.0));
  EXPECT_TRUE(s1.symbolic_rebuild);
  EXPECT_FALSE(s1.warm_started);  // new unknown layout discards the guess
  EXPECT_EQ(session.stats().symbolic_rebuilds, 2);
}

TEST(TransientSession, WarmStartCutsIterations) {
  // Solving the same system twice: the warm second step starts at the
  // solution and must converge in (far) fewer iterations than the cold one.
  const Csr<double> a = gen_varcoef2d(24, 24, 2.0, 9);
  const std::vector<double> b = make_rhs(a, 3);

  TransientOptions warm{transient_options(), StepPolicy{}, true};
  TransientSession<double> session(a, warm);
  const std::int32_t cold_iters = session.step(b).iterations;
  const TransientStepStats s1 = session.step(b);
  EXPECT_TRUE(s1.warm_started);
  EXPECT_LT(s1.iterations, cold_iters);
  EXPECT_EQ(session.stats().warm_steps, 1);

  TransientOptions off = warm;
  off.warm_start = false;
  TransientSession<double> cold_session(a, off);
  cold_session.step(b);
  const TransientStepStats c1 = cold_session.step(b);
  EXPECT_FALSE(c1.warm_started);
  EXPECT_LT(s1.iterations, c1.iterations);
}

TEST(TransientSession, FixedBudgetRunsExactlyBudgetIterations) {
  TransientOptions topt{transient_options(), StepPolicy{}, true};
  topt.policy.mode = StepMode::kFixedBudget;
  topt.policy.iteration_budget = 6;
  const Csr<double> a = gen_varcoef2d(20, 20, 1.5, 13);
  std::vector<double> b = make_rhs(a, 4);

  TransientSession<double> session(a, topt);
  for (int t = 0; t < 4; ++t) {
    const TransientStepStats s = session.step(b);
    ASSERT_NE(s.status, SolveStatus::kBreakdown);
    EXPECT_EQ(s.iterations, 6) << "step " << t;
    for (double& v : b) v *= 1.01;  // keep the sequence moving
  }
  EXPECT_EQ(session.stats().total_iterations, 24);
}

TEST(TransientSession, AdaptiveModeScalesTargetToInitialResidual) {
  TransientOptions topt{transient_options(), StepPolicy{}, true};
  topt.policy.mode = StepMode::kAdaptive;
  topt.policy.adaptive_reduction = 1e-4;
  topt.policy.adaptive_floor = 1e-14;
  const Csr<double> a = gen_varcoef2d(16, 16, 1.0, 17);
  const std::vector<double> b = make_rhs(a, 5);

  TransientSession<double> session(a, topt);
  const TransientStepStats s0 = session.step(b);
  // Cold step: target = reduction * ||b||.
  EXPECT_NEAR(s0.target_tolerance, 1e-4 * norm2(std::span<const double>(b)),
              1e-12);
  EXPECT_LE(s0.final_residual_norm, s0.target_tolerance * (1.0 + 1e-9));

  // Warm step on the same system: r0 is tiny, so the floor binds and the
  // solve tightens instead of quitting immediately.
  const TransientStepStats s1 = session.step(b);
  EXPECT_TRUE(s1.warm_started);
  EXPECT_GE(s1.target_tolerance, topt.policy.adaptive_floor);
  EXPECT_LT(s1.target_tolerance, s0.target_tolerance);
}

// -------------------------------------------------------------------- cache

TEST(TransientSession, AdoptsExactCacheHit) {
  const SpcgOptions opt = transient_options();
  const Csr<double> a = gen_varcoef2d(16, 16, 1.5, 19);
  auto cache = std::make_shared<SetupCache<double>>(4);
  cache->get_or_build(a, opt);  // pre-warm

  TransientSession<double> session(a, TransientOptions{opt, StepPolicy{}, true},
                                   cache);
  session.step(make_rhs(a, 6));
  EXPECT_EQ(session.stats().cache_hits, 1);
  EXPECT_EQ(session.stats().cache_partial_adoptions, 0);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(TransientSession, AdoptsSamePatternEntryAndRefreshes) {
  const SpcgOptions opt = transient_options();
  const Csr<double> a1 = gen_varcoef2d(16, 16, 1.5, 23);
  const Csr<double> a2 = scale_offdiag(a1, 1.5);
  auto cache = std::make_shared<SetupCache<double>>(4);
  cache->get_or_build(a1, opt);  // donor: same pattern, different values

  TransientSession<double> session(
      a2, TransientOptions{opt, StepPolicy{}, true}, cache);
  session.step(make_rhs(a2, 7));
  EXPECT_EQ(session.stats().cache_hits, 0);
  EXPECT_EQ(session.stats().cache_partial_adoptions, 1);
  EXPECT_GE(cache->stats().partial_hits, 1u);
  // Adopted-and-refreshed setups are NOT inserted back into the cache.
  EXPECT_EQ(cache->stats().entries, 1u);

  // The refreshed adoption must still match a cold setup on a2 bitwise.
  const SpcgSetup<double> cold = spcg_setup(a2, opt);
  EXPECT_TRUE(bitwise_equal(session.setup().factorization.lu.values,
                            cold.factorization.lu.values));
}

// -------------------------------------------------------------- alloc audit

TEST(TransientAllocAudit, SteadyStepIsAllocationFree) {
  if (!analysis::alloc_audit_compiled())
    GTEST_SKIP() << "built without SPCG_ALLOC_AUDIT";
  // The ISSUE gate: after the first (structural) step, a values-only step —
  // numeric refresh + warm-started solve — must not touch the heap.
  const TransientOptions topt{transient_options(), StepPolicy{}, true};
  Csr<double> a = gen_varcoef2d(20, 20, 1.5, 29);
  const std::vector<double> b = make_rhs(a, 8);

  TransientSession<double> session(a, topt);
  session.step(b);  // structural warmup: allowed to allocate

  analysis::AllocAudit::instance().reset();
  analysis::AllocAudit::instance().set_enabled(true);
  for (int t = 0; t < 3; ++t) {
    for (double& v : a.values) v *= 1.02;
    session.update_matrix(a);
    session.step(b);
  }
  analysis::AllocAudit::instance().set_enabled(false);
  EXPECT_EQ(analysis::AllocAudit::instance().steady_violations(), 0u);
  bool found = false;
  for (const auto& s : analysis::AllocAudit::instance().snapshot()) {
    if (s.phase != "transient.step") continue;
    found = true;
    EXPECT_EQ(s.steady_scopes, 3u);
    EXPECT_EQ(s.steady_allocs, 0u)
        << s.steady_violations << " steady step(s) allocated";
  }
  EXPECT_TRUE(found);
  analysis::AllocAudit::instance().reset();
}

// ------------------------------------------------------------- step policy

TEST(TransientStepPolicy, ModesMapToSolveOptions) {
  StepPolicy p;
  p.tolerance = 1e-8;
  p.relative = true;
  p.max_iterations = 123;
  const PcgOptions tol = step_solve_options(p);
  EXPECT_EQ(tol.tolerance, 1e-8);
  EXPECT_TRUE(tol.relative);
  EXPECT_EQ(tol.max_iterations, 123);

  p.mode = StepMode::kFixedBudget;
  p.iteration_budget = 9;
  const PcgOptions fixed = step_solve_options(p);
  EXPECT_EQ(fixed.tolerance, 0.0);
  EXPECT_FALSE(fixed.relative);
  EXPECT_EQ(fixed.max_iterations, 9);

  p.mode = StepMode::kAdaptive;
  p.adaptive_reduction = 1e-6;
  p.adaptive_floor = 1e-12;
  const PcgOptions adapt = step_solve_options(p, /*r0_norm=*/10.0);
  EXPECT_DOUBLE_EQ(adapt.tolerance, 1e-5);
  EXPECT_FALSE(adapt.relative);
  const PcgOptions floored = step_solve_options(p, /*r0_norm=*/1e-9);
  EXPECT_DOUBLE_EQ(floored.tolerance, 1e-12);
}

// -------------------------------------------------------------- warm starts

TEST(TransientSolvers, ExplicitZeroGuessMatchesOmittedGuessBitwise) {
  // x0 = 0 must take the exact historical code path: bitwise-identical
  // iterates to the no-guess overload.
  const Csr<double> a = gen_varcoef2d(16, 16, 1.5, 31);
  const std::vector<double> b = make_rhs(a, 9);
  const SpcgOptions opt = transient_options();
  const SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluApplier<double> m(setup.factors, setup.l_schedule, setup.u_schedule,
                             opt.executor);
  const SolveResult<double> plain = pcg(a, b, m, opt.pcg);
  const SolveResult<double> empty_guess =
      pcg(a, std::span<const double>(b), m, opt.pcg, std::span<const double>{});
  EXPECT_EQ(plain.iterations, empty_guess.iterations);
  EXPECT_TRUE(bitwise_equal(plain.x, empty_guess.x));
}

TEST(TransientSolvers, WarmStartHelpsAllSolverVariants) {
  const Csr<double> a = gen_varcoef2d(20, 20, 2.0, 37);
  const std::vector<double> b = make_rhs(a, 10);
  const SpcgOptions opt = transient_options();
  const SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluApplier<double> m(setup.factors, setup.l_schedule, setup.u_schedule,
                             opt.executor);

  const SolveResult<double> cold = pcg(a, b, m, opt.pcg);
  ASSERT_TRUE(cold.converged());

  const SolveResult<double> warm = pcg(a, std::span<const double>(b), m,
                                       opt.pcg, std::span<const double>(cold.x));
  EXPECT_LT(warm.iterations, cold.iterations);

  const SolveResult<double> pipelined =
      pipelined_pcg(a, std::span<const double>(b), m, opt.pcg,
                    std::span<const double>(cold.x));
  EXPECT_LT(pipelined.iterations, cold.iterations);
  EXPECT_TRUE(pipelined.converged());

  // Batched: one warm column, one cold column.
  const std::vector<std::vector<double>> bs{b, b};
  const std::vector<std::vector<double>> x0s{cold.x, {}};
  const std::vector<SolveResult<double>> batch = pcg_batched(
      a, std::span<const std::vector<double>>(bs), setup.factors,
      setup.l_schedule, setup.u_schedule, opt.pcg,
      std::span<const std::vector<double>>(x0s));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_LT(batch[0].iterations, batch[1].iterations);
  EXPECT_EQ(batch[1].iterations, cold.iterations);
}

}  // namespace
}  // namespace spcg
