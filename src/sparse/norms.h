// Matrix and vector norms plus small BLAS-1 helpers used by the solvers.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "support/parallel.h"

namespace spcg {

/// Infinity norm of a matrix: max row sum of absolute values.
template <class T>
T norm_inf(const Csr<T>& a) {
  T best{0};
  for (index_t i = 0; i < a.rows; ++i) {
    T row{0};
    for (const T& v : a.row_vals(i)) row += std::abs(v);
    best = std::max(best, row);
  }
  return best;
}

/// One norm of a matrix: max column sum of absolute values.
template <class T>
T norm_one(const Csr<T>& a) {
  std::vector<T> col_sums(static_cast<std::size_t>(a.cols), T{0});
  for (std::size_t p = 0; p < a.values.size(); ++p)
    col_sums[static_cast<std::size_t>(a.colind[p])] += std::abs(a.values[p]);
  T best{0};
  for (const T& s : col_sums) best = std::max(best, s);
  return best;
}

/// Frobenius norm.
template <class T>
T norm_fro(const Csr<T>& a) {
  T acc{0};
  for (const T& v : a.values) acc += v * v;
  return std::sqrt(acc);
}

/// Euclidean vector norm.
template <class T>
T norm2(std::span<const T> x) {
  T acc{0};
  for (const T& v : x) acc += v * v;
  return std::sqrt(acc);
}

template <class T>
T norm2(const std::vector<T>& x) {
  return norm2(std::span<const T>(x));
}

/// Dot product.
template <class T>
T dot(std::span<const T> x, std::span<const T> y) {
  SPCG_CHECK(x.size() == y.size());
  T acc{0};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

template <class T>
T dot(const std::vector<T>& x, const std::vector<T>& y) {
  return dot(std::span<const T>(x), std::span<const T>(y));
}

namespace detail {

// The threaded BLAS-1 loops, kept out of axpy()/xpby() so the serial loops'
// code does not see the parallel region.

template <class T>
[[gnu::noinline]] void axpy_parallel(T alpha, std::span<const T> x,
                                     std::span<T> y,
                                     [[maybe_unused]] int threads) {
  const std::size_t n = x.size();
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <class T>
[[gnu::noinline]] void xpby_parallel(std::span<const T> z, T beta,
                                     std::span<T> p,
                                     [[maybe_unused]] int threads) {
  const std::size_t n = z.size();
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
}

}  // namespace detail

/// y += alpha * x. Threaded like spmv() (sparse/ops.h): with threads > 1
/// and at least kParallelGrain entries, bitwise equal to the serial loop.
template <class T>
void axpy(T alpha, std::span<const T> x, std::span<T> y, int threads = 1) {
  SPCG_CHECK(x.size() == y.size());
  if (threads > 1 && x.size() >= kParallelGrain) {
    detail::axpy_parallel(alpha, x, y, threads);
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// x = alpha * x.
template <class T>
void scale(T alpha, std::span<T> x) {
  for (T& v : x) v *= alpha;
}

/// p = z + beta * p. Threaded like axpy().
template <class T>
void xpby(std::span<const T> z, T beta, std::span<T> p, int threads = 1) {
  SPCG_CHECK(z.size() == p.size());
  if (threads > 1 && z.size() >= kParallelGrain) {
    detail::xpby_parallel(z, beta, p, threads);
    return;
  }
  for (std::size_t i = 0; i < z.size(); ++i) p[i] = z[i] + beta * p[i];
}

}  // namespace spcg
