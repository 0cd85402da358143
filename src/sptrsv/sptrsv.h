// Sparse triangular solvers (SpTRSV): the executor half of the
// inspector–executor scheme.
//
// Two executors are provided:
//   * serial forward/backward substitution (reference),
//   * level-scheduled parallel substitution (OpenMP): rows within a
//     wavefront run in parallel, with an implicit barrier between levels —
//     the same execution structure as cuSPARSE's csrsv2 on the GPU.
// Both, the multi-RHS sweep behind pcg_batched() and the race detector's
// instrumented executor (analysis/race_detector.h) run one row kernel per
// triangle, detail::lower_row / detail::upper_row.
//
// Factors follow the split_lu() convention, with column-sorted rows:
//   * L is strictly lower with an implicit unit diagonal. Nothing is stored
//     on the diagonal and nothing is divided: x / 1 == x bitwise, so the
//     result equals a stored-unit-diagonal solve while the divide leaves
//     the dependency chain.
//   * U is upper with its diagonal stored first in each row: the pivot is
//     the entry at rowptr[i], the row's remaining entries are subtracted in
//     order, and the one divide stays.
// A row breaking its convention (an entry with j >= i in L; a first entry
// of U that is not a nonzero (i, i)) throws spcg::Error naming the row. The
// check is one integer compare per row, off the floating-point chain.
#pragma once

#include <cstddef>
#include <span>

#include "sparse/csr.h"
#include "wavefront/levels.h"

namespace spcg {

namespace detail {

/// Read hook of the row kernels, called with each column j before x[j] is
/// read. The default compiles away; the race detector records the reads.
struct NoReadHook {
  void operator()(index_t /*j*/) const {}
};

// `carry` (serial sweeps only) holds the x of the row solved just before,
// x[i-1] in L, x[i+1] in U. When that neighbour is the row's entry on the
// dependency chain (the last entry of an L row, the first after the pivot
// in U) it is read from the register instead of reloaded from x, which
// takes the store-to-load latency off the chain. Same operands in the same
// order, so the result is bitwise unchanged. The kernel updates *carry.

/// Forward-substitution row i: x[i] = b_i - sum_j L(i, j) x[j]. Returns
/// false, writing nothing, when the row stores an entry with j >= i; rows
/// are column-sorted, so the last entry decides.
template <class T, class Hook = NoReadHook>
bool lower_row(const Csr<T>& l, index_t i, T b_i, T* x, Hook on_read = {},
               T* carry = nullptr) {
  const index_t begin = l.rowptr[static_cast<std::size_t>(i)];
  const index_t end = l.rowptr[static_cast<std::size_t>(i) + 1];
  if (end > begin && l.colind[static_cast<std::size_t>(end) - 1] >= i)
    return false;
  const bool last_is_carried =
      carry != nullptr && end > begin &&
      l.colind[static_cast<std::size_t>(end) - 1] == i - 1;
  const index_t stop = last_is_carried ? end - 1 : end;
  T acc = b_i;
  for (index_t p = begin; p < stop; ++p) {
    const index_t j = l.colind[static_cast<std::size_t>(p)];
    on_read(j);
    acc -= l.values[static_cast<std::size_t>(p)] * x[j];
  }
  if (last_is_carried) {
    on_read(i - 1);
    acc -= l.values[static_cast<std::size_t>(stop)] * *carry;
  }
  x[i] = acc;
  if (carry != nullptr) *carry = acc;
  return true;
}

/// Backward-substitution row i: x[i] = (b_i - sum_{j>i} U(i, j) x[j]) /
/// U(i, i), the pivot read from rowptr[i]. Returns false, writing nothing,
/// when the row does not start with a nonzero (i, i).
template <class T, class Hook = NoReadHook>
bool upper_row(const Csr<T>& u, index_t i, T b_i, T* x, Hook on_read = {},
               T* carry = nullptr) {
  const index_t begin = u.rowptr[static_cast<std::size_t>(i)];
  const index_t end = u.rowptr[static_cast<std::size_t>(i) + 1];
  if (begin == end || u.colind[static_cast<std::size_t>(begin)] != i ||
      u.values[static_cast<std::size_t>(begin)] == T{0})
    return false;
  T acc = b_i;
  index_t p = begin + 1;
  if (carry != nullptr && p < end &&
      u.colind[static_cast<std::size_t>(p)] == i + 1) {
    on_read(i + 1);
    acc -= u.values[static_cast<std::size_t>(p++)] * *carry;
  }
  for (; p < end; ++p) {
    const index_t j = u.colind[static_cast<std::size_t>(p)];
    on_read(j);
    acc -= u.values[static_cast<std::size_t>(p)] * x[j];
  }
  const T xi = acc / u.values[static_cast<std::size_t>(begin)];
  x[i] = xi;
  if (carry != nullptr) *carry = xi;
  return true;
}

template <bool kLowerTri, class T, class Hook = NoReadHook>
bool solve_row(const Csr<T>& m, index_t i, T b_i, T* x, Hook on_read = {}) {
  if constexpr (kLowerTri)
    return lower_row(m, i, b_i, x, on_read);
  else
    return upper_row(m, i, b_i, x, on_read);
}

[[noreturn]] inline void raise_bad_row(bool lower, index_t i) {
  SPCG_CHECK_MSG(false, (lower ? "L row " : "U row ")
                            << i
                            << (lower ? " stores an entry on or above the "
                                        "diagonal (L is strictly lower, its "
                                        "unit diagonal implicit)"
                                      : " does not start with a nonzero "
                                        "diagonal (zero or missing pivot)"));
}

template <class T>
void check_solve_shape(const Csr<T>& m, std::size_t b_size,
                       std::size_t x_size) {
  SPCG_CHECK(m.rows == m.cols);
  SPCG_CHECK(static_cast<index_t>(b_size) == m.rows);
  SPCG_CHECK(static_cast<index_t>(x_size) == m.rows);
}

/// Level-scheduled sweep over any number of right-hand sides: xs[c] solves
/// M xs[c] = bs[c]. One level sweep (and its barrier) serves every column,
/// and each column's arithmetic is the single-RHS row kernel's, so every
/// column is bitwise equal to a serial solve. An exception must not escape
/// an OpenMP region, so a malformed row is flagged into bad_row and thrown
/// after its level completes.
template <class T, bool kLowerTri>
void sptrsv_levels(const Csr<T>& m, const LevelSchedule& sched,
                   std::span<const T* const> bs, std::span<T* const> xs) {
  SPCG_CHECK(m.rows == m.cols);
  SPCG_CHECK(bs.size() == xs.size());
  SPCG_CHECK(static_cast<index_t>(sched.level_of_row.size()) == m.rows);
  index_t bad_row = -1;
  for (index_t l = 0; l < sched.num_levels(); ++l) {
    const index_t begin = sched.level_ptr[static_cast<std::size_t>(l)];
    const index_t end = sched.level_ptr[static_cast<std::size_t>(l) + 1];
#pragma omp parallel for schedule(static)
    for (index_t s = begin; s < end; ++s) {
      const index_t i = sched.rows_by_level[static_cast<std::size_t>(s)];
      for (std::size_t c = 0; c < bs.size(); ++c) {
        if (!solve_row<kLowerTri>(m, i, bs[c][i], xs[c])) {
#pragma omp atomic write
          bad_row = i;
        }
      }
    }
    // Implicit omp barrier at the end of each level's parallel region.
    if (bad_row >= 0) raise_bad_row(kLowerTri, bad_row);
  }
}

template <class T, bool kLowerTri>
void sptrsv_levels_single(const Csr<T>& m, const LevelSchedule& sched,
                          std::span<const T> b, std::span<T> x) {
  check_solve_shape(m, b.size(), x.size());
  const T* const bs[] = {b.data()};
  T* const xs[] = {x.data()};
  sptrsv_levels<T, kLowerTri>(m, sched, bs, xs);
}

}  // namespace detail

/// Solve L x = b, L strictly lower with an implicit unit diagonal. x may
/// alias b.
template <class T>
void sptrsv_lower_serial(const Csr<T>& l, std::span<const T> b,
                         std::span<T> x) {
  detail::check_solve_shape(l, b.size(), x.size());
  T prev{0};
  for (index_t i = 0; i < l.rows; ++i)
    if (!detail::lower_row(l, i, b[static_cast<std::size_t>(i)], x.data(),
                           detail::NoReadHook{}, &prev))
      detail::raise_bad_row(true, i);
}

/// Solve U x = b, U upper with its diagonal stored first. x may alias b.
template <class T>
void sptrsv_upper_serial(const Csr<T>& u, std::span<const T> b,
                         std::span<T> x) {
  detail::check_solve_shape(u, b.size(), x.size());
  T prev{0};
  for (index_t i = u.rows - 1; i >= 0; --i)
    if (!detail::upper_row(u, i, b[static_cast<std::size_t>(i)], x.data(),
                           detail::NoReadHook{}, &prev))
      detail::raise_bad_row(false, i);
}

/// Level-scheduled lower solve. `sched` must be level_schedule(l, kLower).
/// x must not alias b (rows of one level read b while others write x).
template <class T>
void sptrsv_lower_levels(const Csr<T>& l, const LevelSchedule& sched,
                         std::span<const T> b, std::span<T> x) {
  detail::sptrsv_levels_single<T, true>(l, sched, b, x);
}

/// Level-scheduled upper solve. `sched` must be level_schedule(u, kUpper).
template <class T>
void sptrsv_upper_levels(const Csr<T>& u, const LevelSchedule& sched,
                         std::span<const T> b, std::span<T> x) {
  detail::sptrsv_levels_single<T, false>(u, sched, b, x);
}

/// Multi-RHS level-scheduled lower solve: xs[c] solves L xs[c] = bs[c]. One
/// level sweep (and its barriers) is shared across all columns. No xs[c] may
/// alias any bs[c'].
template <class T>
void sptrsv_lower_levels_multi(const Csr<T>& l, const LevelSchedule& sched,
                               std::span<const T* const> bs,
                               std::span<T* const> xs) {
  detail::sptrsv_levels<T, true>(l, sched, bs, xs);
}

/// Multi-RHS level-scheduled upper solve.
template <class T>
void sptrsv_upper_levels_multi(const Csr<T>& u, const LevelSchedule& sched,
                               std::span<const T* const> bs,
                               std::span<T* const> xs) {
  detail::sptrsv_levels<T, false>(u, sched, bs, xs);
}

}  // namespace spcg
