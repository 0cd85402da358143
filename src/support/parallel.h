// Thread counts for the row-parallel memory-bound kernels (spmv in
// sparse/ops.h, axpy/xpby in sparse/norms.h).
//
// Those kernels take an explicit thread count and split their rows
// statically across that many OpenMP threads. Each output entry is computed
// from the same operands in the same order as the serial loop, so results
// are bitwise identical for every thread count. Below kParallelGrain rows
// they run the serial loop whatever count they are given: a fork/join costs
// more than streaming a cache-resident vector.
//
// OMP_NUM_THREADS is the only control. default_threads() reads it (through
// omp_get_max_threads) when a solve starts; without OpenMP it is 1. Threads
// that each run one solve of a pool (SolveService workers, SolverSession's
// per-RHS pool) call pin_one_thread() first, so concurrent solves do not
// oversubscribe the cores; it sets the calling thread's OpenMP count, so
// the level-scheduled sweeps of those solves run on one thread too.
#pragma once

#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace spcg {

/// Rows (vector entries) below which the threaded kernels stay serial.
inline constexpr std::size_t kParallelGrain = 65536;

/// The OpenMP thread count a parallel region started here would get.
inline int default_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Make the calling thread's later parallel regions run on one thread.
inline void pin_one_thread() {
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
}

}  // namespace spcg
