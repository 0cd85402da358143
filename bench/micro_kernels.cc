// google-benchmark microbenchmarks for the real (host CPU) kernels: SpMV,
// triangular solves (serial L and U, level-scheduled L, the whole ILU
// apply), ILU factorizations, the wavefront inspector, and Algorithm 2
// itself. These measure the actual library code on the machine running the
// build, complementing the modeled device numbers used by the figure/table
// benches.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/sparsify.h"
#include "gen/generators.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "solver/pcg.h"
#include "sparse/norms.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace {

using namespace spcg;

const Csr<double>& grid_matrix() {
  static const Csr<double> a = gen_poisson2d(128, 128);
  return a;
}

const Csr<double>& circuit_matrix() {
  static const Csr<double> a = gen_grid_laplacian(96, 96, 2.0, 0.4, 9);
  return a;
}

// The suite's econ_1500_8: ILU(K=2) fills it almost densely.
const Csr<double>& econ_matrix() {
  static const Csr<double> a = gen_economic(1500, 8, 0.9, 701);
  return a;
}

void BM_Spmv(benchmark::State& state) {
  const Csr<double>& a = grid_matrix();
  std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    spmv(a, std::span<const double>(x), std::span<double>(y));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv);

// The threaded kernels on a system above kParallelGrain (1M rows, so the
// vectors stream from memory); the argument is the thread count.
const Csr<double>& large_grid_matrix() {
  static const Csr<double> a = gen_poisson2d(1024, 1024);
  return a;
}

void BM_SpmvThreads(benchmark::State& state) {
  const Csr<double>& a = large_grid_matrix();
  const int threads = static_cast<int>(state.range(0));
  std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    spmv(a, std::span<const double>(x), std::span<double>(y), threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_AxpyThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(large_grid_matrix().rows);
  const int threads = static_cast<int>(state.range(0));
  std::vector<double> x(n, 1.0);
  std::vector<double> y(n, 0.0);
  for (auto _ : state) {
    axpy(1e-9, std::span<const double>(x), std::span<double>(y), threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Items are the entries of the unit lower triangle, diagonal included, so
// rates stay comparable whether or not L stores its unit diagonal.
void BM_SptrsvSerial(benchmark::State& state) {
  const TriangularFactors<double> f = split_lu(ilu0(grid_matrix()));
  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    sptrsv_lower_serial(f.l, std::span<const double>(b), std::span<double>(x));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * (f.l.nnz() + f.l.rows));
}
BENCHMARK(BM_SptrsvSerial);

void BM_SptrsvUpperSerial(benchmark::State& state) {
  const TriangularFactors<double> f = split_lu(ilu0(grid_matrix()));
  std::vector<double> b(static_cast<std::size_t>(f.u.rows), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    sptrsv_upper_serial(f.u, std::span<const double>(b), std::span<double>(x));
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.u.nnz());
}
BENCHMARK(BM_SptrsvUpperSerial);

// The whole preconditioner apply: both serial sweeps, as PCG runs them.
void BM_IluApplySerial(benchmark::State& state) {
  const IluPreconditioner<double> m(ilu0(grid_matrix()));
  std::vector<double> r(static_cast<std::size_t>(m.rows()), 1.0);
  std::vector<double> z(r.size());
  for (auto _ : state) {
    m.apply(std::span<const double>(r), std::span<double>(z));
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  const TriangularFactors<double>& f = m.factors();
  state.SetItemsProcessed(state.iterations() *
                          (f.l.nnz() + f.l.rows + f.u.nnz()));
}
BENCHMARK(BM_IluApplySerial);

void BM_SptrsvLevelScheduled(benchmark::State& state) {
  const TriangularFactors<double> f = split_lu(ilu0(grid_matrix()));
  const LevelSchedule sched = level_schedule(f.l, Triangle::kLower);
  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    sptrsv_lower_levels(f.l, sched, std::span<const double>(b),
                        std::span<double>(x));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * (f.l.nnz() + f.l.rows));
}
BENCHMARK(BM_SptrsvLevelScheduled);

void BM_Ilu0(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    IluResult<double> r = ilu0(a);
    benchmark::DoNotOptimize(r.lu.values.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Ilu0);

void BM_IlukSymbolic(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  const auto k = static_cast<index_t>(state.range(0));
  for (auto _ : state) {
    IlukSymbolic s = iluk_symbolic(a, k, 512);
    benchmark::DoNotOptimize(s.pattern.colind.data());
  }
}
BENCHMARK(BM_IlukSymbolic)->Arg(2)->Arg(5)->Arg(10);

void BM_IlukSymbolicEcon(benchmark::State& state) {
  const Csr<double>& a = econ_matrix();
  for (auto _ : state) {
    IlukSymbolic s = iluk_symbolic(a, 2);
    benchmark::DoNotOptimize(s.pattern.colind.data());
  }
}
BENCHMARK(BM_IlukSymbolicEcon)->Unit(benchmark::kMillisecond);

// The numeric phase alone on a fixed ILU(K=2) pattern: value load plus
// elimination, through the allocation-free refresh entry point. Items are
// elimination updates.
void ilu_numeric_bench(benchmark::State& state, const Csr<double>& a,
                       index_t max_row_fill) {
  IluResult<double> r = iluk(a, 2, IluOptions{}, max_row_fill);
  IluScratch scratch(a.rows);
  for (auto _ : state) {
    ilu_refactorize(r, a, IluOptions{}, &scratch);
    benchmark::DoNotOptimize(r.lu.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(r.elimination_ops));
}

void BM_IlukNumeric(benchmark::State& state) {
  ilu_numeric_bench(state, circuit_matrix(), 512);
}
BENCHMARK(BM_IlukNumeric);

void BM_IlukNumericEcon(benchmark::State& state) {
  ilu_numeric_bench(state, econ_matrix(), 0);
}
BENCHMARK(BM_IlukNumericEcon)->Unit(benchmark::kMillisecond);

void BM_LevelSchedule(benchmark::State& state) {
  const Csr<double>& a = grid_matrix();
  for (auto _ : state) {
    LevelSchedule s = level_schedule(a, Triangle::kLower);
    benchmark::DoNotOptimize(s.level_ptr.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_LevelSchedule);

void BM_SparsifyByRatio(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
    benchmark::DoNotOptimize(s.a_hat.values.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SparsifyByRatio);

void BM_WavefrontAwareSparsify(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    SparsifyDecision<double> d = wavefront_aware_sparsify(a);
    benchmark::DoNotOptimize(d.chosen.a_hat.values.data());
  }
}
BENCHMARK(BM_WavefrontAwareSparsify);

void BM_PcgIteration(benchmark::State& state) {
  // Cost of PCG per iteration on the host: fixed 10 iterations per run.
  const Csr<double>& a = grid_matrix();
  const std::vector<double> b = make_rhs(a, 3);
  IluPreconditioner<double> m(ilu0(a));
  PcgOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = 10;
  for (auto _ : state) {
    SolveResult<double> r = pcg(a, b, m, opt);
    benchmark::DoNotOptimize(r.x.data());
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_PcgIteration);

}  // namespace

BENCHMARK_MAIN();
