// Tests for the row-parallel memory-bound kernels (support/parallel.h):
// spmv, axpy and xpby at and above kParallelGrain, and the CG loops that
// call them, must be bitwise identical at 1, 2 and 4 OpenMP threads. The
// north-star gates (P = 1 dist ≡ serial, batched ≡ per-column, refreshed ≡
// cold) are repeated here on systems above the grain, where the serial side
// takes the threaded path.
//
// The whole binary is RUN_SERIAL (tests/CMakeLists.txt): each test starts
// up to four threads, and concurrent ctest jobs would oversubscribe them.
// Without OpenMP every count runs one thread and the comparisons are
// trivially equal.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "core/spcg.h"
#include "dist/dist.h"
#include "gen/generators.h"
#include "precond/preconditioner.h"
#include "runtime/runtime.h"
#include "solver/pcg.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "transient/refactorize.h"

namespace spcg {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

/// Sets the calling thread's OpenMP thread count for the scope.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(default_threads()) { set(n); }
  ~ScopedThreads() { set(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  static void set([[maybe_unused]] int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#endif
  }
  int saved_;
};

template <class V>
bool bitwise_equal(const std::vector<V>& x, const std::vector<V>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(V)) == 0);
}

void expect_same_solve(const SolveResult<double>& got,
                       const SolveResult<double>& want, const char* what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_TRUE(bitwise_equal(got.x, want.x)) << what;
  EXPECT_TRUE(bitwise_equal(got.residual_history, want.residual_history))
      << what;
  EXPECT_EQ(got.final_residual_norm, want.final_residual_norm) << what;
}

/// 67,600 rows: just above the grain.
const Csr<double>& grid() {
  static const Csr<double> a = gen_poisson2d(260, 260);
  return a;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

// 60 iterations exercise every threaded call of both loops; a converged
// solve is not needed to compare them, and the cap keeps the binary short.
SpcgOptions solve_options() {
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-6;
  opt.pcg.relative = true;
  opt.pcg.max_iterations = 60;
  opt.pcg.record_history = true;
  return opt;
}

TEST(ThreadedKernels, SystemIsAboveTheGrain) {
  EXPECT_GE(static_cast<std::size_t>(grid().rows), kParallelGrain);
}

TEST(ThreadedKernels, LocalSpaceReadsTheThreadCountAndPoolsPinOne) {
  const Csr<double>& a = grid();
  const IdentityPreconditioner<double> m(a.rows);
  const ScopedThreads three(3);
  const int expected = default_threads();
#ifdef _OPENMP
  EXPECT_EQ(expected, 3);
#endif
  EXPECT_EQ(LocalSpace<double>(a, m).threads(), expected);
  int pinned = 0;
  std::thread worker([&] {
    pin_one_thread();
    pinned = LocalSpace<double>(a, m).threads();
  });
  worker.join();
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(default_threads(), expected);  // the caller keeps its count
}

TEST(ThreadedKernels, SpmvBitwiseAcrossThreadCounts) {
  const Csr<double>& a = grid();
  const std::vector<double> x = random_vector(a.rows, 1);
  std::vector<double> serial(x.size());
  spmv(a, std::span<const double>(x), std::span<double>(serial));
  for (const int t : kThreadCounts) {
    std::vector<double> y(x.size());
    spmv(a, std::span<const double>(x), std::span<double>(y), t);
    EXPECT_TRUE(bitwise_equal(y, serial)) << "threads=" << t;
  }
}

TEST(ThreadedKernels, AxpyAndXpbyBitwiseAcrossThreadCounts) {
  const std::size_t n = static_cast<std::size_t>(grid().rows);
  const std::vector<double> x = random_vector(n, 2);
  const std::vector<double> y0 = random_vector(n, 3);
  std::vector<double> axpy_serial = y0, xpby_serial = y0;
  axpy(0.7131, std::span<const double>(x), std::span<double>(axpy_serial));
  xpby(std::span<const double>(x), -1.377, std::span<double>(xpby_serial));
  for (const int t : kThreadCounts) {
    std::vector<double> y = y0;
    axpy(0.7131, std::span<const double>(x), std::span<double>(y), t);
    EXPECT_TRUE(bitwise_equal(y, axpy_serial)) << "axpy threads=" << t;
    y = y0;
    xpby(std::span<const double>(x), -1.377, std::span<double>(y), t);
    EXPECT_TRUE(bitwise_equal(y, xpby_serial)) << "xpby threads=" << t;
  }
}

TEST(ThreadedKernels, PcgAndPipelinedPcgBitwiseAcrossThreadCounts) {
  const Csr<double>& a = grid();
  const std::vector<double> b = make_rhs(a, 4);
  const SpcgOptions opt = solve_options();
  const SpcgSetup<double> setup = spcg_setup(a, opt);
  const IluApplier<double> m(setup.factors, setup.l_schedule,
                             setup.u_schedule, opt.executor);

  SolveResult<double> classic1, pipelined1;
  {
    const ScopedThreads one(1);
    classic1 = pcg(a, b, m, opt.pcg);
    pipelined1 = pipelined_pcg(a, b, m, opt.pcg);
  }
  ASSERT_GT(classic1.iterations, 0);
  ASSERT_GT(pipelined1.iterations, 0);
  for (const int t : {2, 4}) {
    const ScopedThreads scope(t);
    expect_same_solve(pcg(a, b, m, opt.pcg), classic1, "pcg");
    expect_same_solve(pipelined_pcg(a, b, m, opt.pcg), pipelined1,
                      "pipelined_pcg");
  }
}

TEST(ThreadedGates, SinglePartDistIsBitwiseEqualToThreadedSerial) {
  const Csr<double>& a = grid();
  const std::vector<double> b = make_rhs(a, 5);
  const SpcgOptions opt = solve_options();
  const ScopedThreads four(4);

  const SpcgResult<double> serial = spcg_solve(a, b, opt);
  ASSERT_GT(serial.solve.iterations, 0);
  DistOptions dopt;
  dopt.parts = 1;
  dopt.options = opt;
  const DistSetup<double> setup = dist_setup(a, dopt);
  expect_same_solve(dist_pcg_solve(b, setup, dopt).solve, serial.solve,
                    "classic");

  const SpcgSetup<double> local = spcg_setup(a, opt);
  const IluApplier<double> m(local.factors, local.l_schedule,
                             local.u_schedule, opt.executor);
  const SolveResult<double> pipelined = pipelined_pcg(a, b, m, opt.pcg);
  dopt.body = DistBody::kCommReduced;
  expect_same_solve(dist_pcg_solve(b, setup, dopt).solve, pipelined,
                    "comm-reduced");
}

TEST(ThreadedGates, BatchedIsBitwiseEqualToThreadedPerColumn) {
  const Csr<double>& a = grid();
  const ScopedThreads four(4);
  SolverSession<double> session(a, solve_options());
  std::vector<std::vector<double>> rhs;
  for (std::uint64_t s = 1; s <= 2; ++s) rhs.push_back(make_rhs(a, s));

  const std::vector<SessionSolveResult<double>> fused = session.solve_batch(
      rhs, BatchOptions{BatchOptions::Mode::kFused, 1});
  ASSERT_EQ(fused.size(), rhs.size());
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    const SessionSolveResult<double> seq = session.solve(rhs[c]);
    ASSERT_GT(seq.solve.iterations, 0) << "rhs " << c;
    EXPECT_EQ(fused[c].solve.status, seq.solve.status) << "rhs " << c;
    EXPECT_EQ(fused[c].solve.iterations, seq.solve.iterations) << "rhs " << c;
    EXPECT_TRUE(bitwise_equal(fused[c].solve.x, seq.solve.x)) << "rhs " << c;
  }
}

TEST(ThreadedGates, RefreshedIsBitwiseEqualToColdAboveGrain) {
  // One candidate ratio and a uniform off-diagonal scaling keep the
  // sparsification pattern decision fixed (see transient_test.cc).
  SpcgOptions opt = solve_options();
  opt.sparsify.ratios = {10.0};
  const Csr<double> a1 = gen_varcoef2d(260, 260, 1.5, 11);
  Csr<double> a2 = a1;
  for (index_t i = 0; i < a2.rows; ++i)
    for (index_t k = a2.rowptr[static_cast<std::size_t>(i)];
         k < a2.rowptr[static_cast<std::size_t>(i) + 1]; ++k)
      if (a2.colind[static_cast<std::size_t>(k)] != i)
        a2.values[static_cast<std::size_t>(k)] *= 0.8;
  const std::vector<double> b = make_rhs(a2, 6);

  SpcgSetup<double> live = spcg_setup(a1, opt);
  NumericRefreshWorkspace ws = build_numeric_refresh(live, a1);
  refresh_setup_numerics(live, a2, opt, ws);
  const SpcgSetup<double> cold = spcg_setup(a2, opt);
  EXPECT_TRUE(bitwise_equal(live.factors.l.values, cold.factors.l.values));
  EXPECT_TRUE(bitwise_equal(live.factors.u.values, cold.factors.u.values));

  const IluApplier<double> m_live(live.factors, live.l_schedule,
                                  live.u_schedule, opt.executor);
  const IluApplier<double> m_cold(cold.factors, cold.l_schedule,
                                  cold.u_schedule, opt.executor);
  SolveResult<double> cold1;
  {
    const ScopedThreads one(1);
    cold1 = pcg(a2, b, m_cold, opt.pcg);
  }
  ASSERT_GT(cold1.iterations, 0);
  const ScopedThreads four(4);
  expect_same_solve(pcg(a2, b, m_live, opt.pcg), cold1, "refreshed");
  expect_same_solve(pcg(a2, b, m_cold, opt.pcg), cold1, "cold");
}

}  // namespace
}  // namespace spcg
