// Incomplete LU factorizations.
//
// Both ILU(0) and ILU(K) are expressed as "ILU on a fixed pattern":
//   * ILU(0): the pattern is exactly the pattern of A (no fill-in).
//   * ILU(K): the pattern is A's pattern extended with all fill entries whose
//     level-of-fill is <= K (Saad, "Iterative Methods for Sparse Linear
//     Systems", Alg. 10.5/10.6). The paper obtains this factor from SuperLU
//     on the CPU; here the symbolic and numeric phases are implemented
//     directly.
//
// The numeric phase is the classic IKJ row elimination restricted to the
// pattern, producing a combined factor: strict lower part holds L (unit
// diagonal implicit), diagonal + upper part hold U.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "sparse/ops.h"
#include "wavefront/levels.h"

namespace spcg {

/// Options controlling pivot handling during the numeric phase.
struct IluOptions {
  /// When a pivot's magnitude falls below `pivot_floor * ||row||_inf`, it is
  /// replaced by that floor (signed). Set boost_zero_pivots=false to throw
  /// instead — useful in tests that must detect breakdown.
  bool boost_zero_pivots = true;
  double pivot_floor = 1e-12;
};

/// Result of a factorization: combined LU in one CSR plus the diagonal
/// positions (pointing at U's diagonal inside `lu`).
template <class T>
struct IluResult {
  Csr<T> lu;                      // combined factor, same shape as pattern
  std::vector<index_t> diag_pos;  // position of (i,i) in lu for each row
  index_t fill_nnz = 0;           // nnz(lu) - nnz(A): fill introduced (ILU(K))
  bool breakdown = false;         // a pivot was boosted during elimination
  /// Inner-loop update count of the elimination (one multiply-add per unit);
  /// feeds the factorization cost models.
  std::uint64_t elimination_ops = 0;
};

/// Caller-owned scratch of the numeric phase, sized for n rows. `pos` (the
/// column -> position scatter of the row being eliminated) is all -1 between
/// uses; `tail` (where each finished row's contiguous U run starts) is
/// written before it is read. The refactorize path keeps one of these so a
/// numeric-only refresh never allocates.
struct IluScratch {
  std::vector<index_t> pos;
  std::vector<index_t> tail;

  IluScratch() = default;
  explicit IluScratch(index_t n)
      : pos(static_cast<std::size_t>(n), -1),
        tail(static_cast<std::size_t>(n), 0) {}
};

namespace detail {

/// Shortest contiguous U tail the elimination updates as one straight run
/// instead of through pos[]. Shorter tails (every tail of a 5-point ILU(0)
/// has length 1) are not worth the two extra pos[] lookups.
inline constexpr index_t kMinContiguousTail = 8;

/// The row loop of ilu_numeric_in_place; kTails compiles the
/// contiguous-tail bookkeeping in.
template <bool kTails, class T>
void ilu_numeric_rows(Csr<T>& lu, std::vector<index_t>& diag_pos,
                      const IluOptions& opt, bool& breakdown,
                      std::uint64_t& elimination_ops, std::span<index_t> pos,
                      std::span<index_t> tail) {
  const index_t n = lu.rows;
  for (index_t i = 0; i < n; ++i) {
    const index_t row_begin = lu.rowptr[static_cast<std::size_t>(i)];
    const index_t row_end = lu.rowptr[static_cast<std::size_t>(i) + 1];
    // Scatter column -> position for row i.
    for (index_t p = row_begin; p < row_end; ++p)
      pos[static_cast<std::size_t>(lu.colind[static_cast<std::size_t>(p)])] = p;

    T row_norm{0};
    for (index_t p = row_begin; p < row_end; ++p)
      row_norm = std::max(row_norm,
                          std::abs(lu.values[static_cast<std::size_t>(p)]));

    // Eliminate using previous rows k < i present in this row's pattern.
    for (index_t p = row_begin; p < row_end; ++p) {
      const index_t k = lu.colind[static_cast<std::size_t>(p)];
      if (k >= i) break;  // columns are sorted; remaining are U-part
      const index_t dk = diag_pos[static_cast<std::size_t>(k)];
      SPCG_CHECK_MSG(dk >= 0, "missing diagonal in pivot row " << k);
      const T pivot = lu.values[static_cast<std::size_t>(dk)];
      SPCG_CHECK_MSG(pivot != T{0},
                     "zero pivot in row " << k << " while eliminating row "
                                          << i);
      const T lik = lu.values[static_cast<std::size_t>(p)] / pivot;
      lu.values[static_cast<std::size_t>(p)] = lik;
      // Subtract lik * (U-part of row k) from row i, restricted to pattern.
      const index_t u_end = lu.rowptr[static_cast<std::size_t>(k) + 1];
      elimination_ops += static_cast<std::uint64_t>(u_end - (dk + 1)) + 1;
      index_t masked_end = u_end;
      if (kTails && u_end - (dk + 1) >= kMinContiguousTail) {
        const index_t run = tail[static_cast<std::size_t>(k)];
        const index_t first = pos[static_cast<std::size_t>(
            lu.colind[static_cast<std::size_t>(run)])];
        const index_t last = pos[static_cast<std::size_t>(
            lu.colind[static_cast<std::size_t>(u_end) - 1])];
        if (u_end - run >= kMinContiguousTail && first >= 0 &&
            last - first == u_end - 1 - run) {
          T* __restrict dst = lu.values.data() + first;
          const T* __restrict src = lu.values.data() + run;
          const index_t len = u_end - run;
          // Vectorized at -O2 only when asked: on econ_1500_8 at K = 2 this
          // loop is 97% of the updates and halves the phase (0.92-1.11 s
          // scalar, 0.62-0.79 s vectorized). Lanes do the same IEEE ops.
#pragma omp simd
          for (index_t t = 0; t < len; ++t) dst[t] -= lik * src[t];
          masked_end = run;
        }
      }
      for (index_t q = dk + 1; q < masked_end; ++q) {
        const index_t j = lu.colind[static_cast<std::size_t>(q)];
        const index_t pj = pos[static_cast<std::size_t>(j)];
        if (pj >= 0)
          lu.values[static_cast<std::size_t>(pj)] -=
              lik * lu.values[static_cast<std::size_t>(q)];
      }
    }

    const index_t di = pos[static_cast<std::size_t>(i)];
    SPCG_CHECK_MSG(di >= 0, "pattern row " << i << " has no diagonal entry");
    diag_pos[static_cast<std::size_t>(i)] = di;
    T& pivot = lu.values[static_cast<std::size_t>(di)];
    const T floor = static_cast<T>(opt.pivot_floor) *
                    std::max(row_norm, T{1});
    if (std::abs(pivot) < floor) {
      SPCG_CHECK_MSG(opt.boost_zero_pivots,
                     "zero pivot at row " << i << " (|pivot|=" << std::abs(pivot)
                                          << ")");
      pivot = (pivot < T{0} ? -floor : floor);
      breakdown = true;
    }

    // Record where row i's trailing run of consecutive columns starts. Only
    // rows whose U-part could hold a long enough run are recorded, and only
    // those are read back.
    if (kTails && row_end - (di + 1) >= kMinContiguousTail) {
      index_t run = row_end - 1;
      while (run > di + 1 && lu.colind[static_cast<std::size_t>(run) - 1] ==
                                 lu.colind[static_cast<std::size_t>(run)] - 1)
        --run;
      tail[static_cast<std::size_t>(i)] = run;
    }

    // Clear scatter array.
    for (index_t p = row_begin; p < row_end; ++p)
      pos[static_cast<std::size_t>(lu.colind[static_cast<std::size_t>(p)])] = -1;
  }
}

/// Numeric ILU on the (already sorted, diagonal-present) pattern in `lu`.
/// `lu.values` must hold A's values at A's positions and 0 at fill positions.
/// `scratch.pos` is all -1 on entry and restored to all -1 on return.
///
/// Row i is eliminated against each k < i of its pattern: l_ik = a_ik/u_kk,
/// then a_ij -= l_ik * u_kj for every j of row k's U-part present in row i.
/// When row k finishes, the start of its trailing run of consecutive
/// columns is recorded; when row i holds that run contiguously too (checked
/// by the positions of its first and last column), the run is updated as
/// one straight loop. Each target still gets the same single update, so the
/// result is bitwise that of the masked pos[] loop.
template <class T>
void ilu_numeric_in_place(Csr<T>& lu, std::vector<index_t>& diag_pos,
                          const IluOptions& opt, bool& breakdown,
                          std::uint64_t& elimination_ops, IluScratch& scratch) {
  const index_t n = lu.rows;
  SPCG_CHECK(static_cast<index_t>(scratch.pos.size()) == n &&
             static_cast<index_t>(scratch.tail.size()) == n);
  diag_pos.assign(static_cast<std::size_t>(n), -1);
  // A U-part can hold a long enough run only in a row longer than
  // kMinContiguousTail; without one (ILU(0) on stencils) the bookkeeping
  // is compiled out rather than tested per pivot.
  bool long_rows = false;
  for (index_t i = 0; i < n && !long_rows; ++i)
    long_rows = lu.rowptr[static_cast<std::size_t>(i) + 1] -
                    lu.rowptr[static_cast<std::size_t>(i)] >
                kMinContiguousTail;
  const std::span<index_t> pos(scratch.pos);
  const std::span<index_t> tail(scratch.tail);
  if (long_rows)
    ilu_numeric_rows<true>(lu, diag_pos, opt, breakdown, elimination_ops, pos,
                           tail);
  else
    ilu_numeric_rows<false>(lu, diag_pos, opt, breakdown, elimination_ops,
                            pos, tail);
}

/// Allocating convenience overload: owns the scratch itself.
template <class T>
void ilu_numeric_in_place(Csr<T>& lu, std::vector<index_t>& diag_pos,
                          const IluOptions& opt, bool& breakdown,
                          std::uint64_t& elimination_ops) {
  IluScratch scratch(lu.rows);
  ilu_numeric_in_place(lu, diag_pos, opt, breakdown, elimination_ops, scratch);
}

/// Load A's values into the sorted pattern `lu` (same rows, pattern ⊇ A's
/// up to truncation): A's value at each of A's positions and 0 at fill
/// positions — the initial state the numeric phase expects. Both rows are
/// sorted, so one merge walk per row places every value. An entry of A
/// absent from the pattern is legal only when `allow_missing` (the ILU(K)
/// per-row fill cap truncated it); it is then simply not part of the
/// preconditioner (ILUT-style drop).
template <class T>
void load_pattern_values(Csr<T>& lu, const Csr<T>& a, bool allow_missing) {
  for (index_t i = 0; i < a.rows; ++i) {
    auto q = static_cast<std::size_t>(lu.rowptr[static_cast<std::size_t>(i)]);
    const auto q_end =
        static_cast<std::size_t>(lu.rowptr[static_cast<std::size_t>(i) + 1]);
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = a.colind[static_cast<std::size_t>(p)];
      while (q < q_end && lu.colind[q] < j) lu.values[q++] = T{0};
      if (q < q_end && lu.colind[q] == j) {
        lu.values[q++] = a.values[static_cast<std::size_t>(p)];
        continue;
      }
      SPCG_CHECK_MSG(allow_missing,
                     "factor pattern lost original entry (" << i << ", " << j
                                                            << ")");
    }
    while (q < q_end) lu.values[q++] = T{0};
  }
}

}  // namespace detail

/// ILU(0): incomplete LU with zero fill-in, on A's own pattern. A must be
/// square with a fully stored diagonal.
template <class T>
IluResult<T> ilu0(const Csr<T>& a, const IluOptions& opt = {}) {
  SPCG_CHECK(a.rows == a.cols);
  IluResult<T> r;
  r.lu = a;  // pattern and initial values are A's
  detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                               r.elimination_ops);
  r.fill_nnz = 0;
  return r;
}

/// Symbolic ILU(K): returns the filled pattern (colind sorted per row,
/// diagonal included) and the level of fill of every stored entry.
///
/// `max_row_fill` caps the stored entries per row as a safety valve against
/// quadratic blow-up on scattered patterns (0 = unlimited). When the cap
/// trips, the diagonal and the max_row_fill - 1 lowest (level, column)
/// pairs of the other entries are kept, and `truncated_rows` counts the
/// affected rows.
struct IlukSymbolic {
  Csr<char> pattern;              // values unused; structure only
  std::vector<index_t> levels;    // level of fill per stored entry
  index_t truncated_rows = 0;
};

/// Structure-only entry point: `rowptr`/`colind` of a square n x n matrix
/// with sorted rows and every diagonal stored.
IlukSymbolic iluk_symbolic(index_t n, std::span<const index_t> rowptr,
                           std::span<const index_t> colind, index_t k,
                           index_t max_row_fill = 0);

/// Level-of-fill is purely structural: reads A's rowptr/colind directly.
template <class T>
IlukSymbolic iluk_symbolic(const Csr<T>& a, index_t k,
                           index_t max_row_fill = 0) {
  SPCG_CHECK(a.rows == a.cols);
  return iluk_symbolic(a.rows, std::span<const index_t>(a.rowptr),
                       std::span<const index_t>(a.colind), k, max_row_fill);
}

/// ILU(K): symbolic fill to level `k`, then numeric factorization on the
/// extended pattern.
template <class T>
IluResult<T> iluk(const Csr<T>& a, index_t k, const IluOptions& opt = {},
                  index_t max_row_fill = 0) {
  SPCG_CHECK(a.rows == a.cols);
  const IlukSymbolic sym = iluk_symbolic(a, k, max_row_fill);
  IluResult<T> r;
  r.lu.rows = a.rows;
  r.lu.cols = a.cols;
  r.lu.rowptr = sym.pattern.rowptr;
  r.lu.colind = sym.pattern.colind;
  r.lu.values.resize(r.lu.colind.size());
  detail::load_pattern_values(r.lu, a, sym.truncated_rows > 0);
  detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                               r.elimination_ops);
  r.fill_nnz = r.lu.nnz() - a.nnz();
  return r;
}

/// Numeric-only refactorization: rerun the elimination on an existing
/// factorization's pattern with fresh values from `a`. The symbolic
/// structure (lu.rowptr/colind — A's pattern for ILU(0), the level-K closure
/// for ILU(K)) is reused verbatim; only lu.values, diag_pos, breakdown and
/// elimination_ops are recomputed. `a` must have the pattern the original
/// factorization was built from (same rows and the same stored entries —
/// only the values may differ); entries of `a` absent from the pattern are
/// only legal when the ILU(K) per-row fill cap truncated them out of the
/// original setup, mirroring iluk()'s scatter.
///
/// `scratch`, when given, must be a caller-owned IluScratch(a.rows) —
/// passing it makes the refresh allocation-free apart from diag_pos.assign,
/// which reuses its existing capacity. Null = allocate internally.
template <class T>
void ilu_refactorize(IluResult<T>& r, const Csr<T>& a,
                     const IluOptions& opt = {},
                     IluScratch* scratch = nullptr) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(r.lu.rows == a.rows && r.lu.cols == a.cols);
  // ILU(0) setups (no fill, pattern == A's) must find every entry; ILU(K)
  // setups tolerate misses because the per-row fill cap may have truncated
  // original entries out of the pattern (IluResult does not retain the
  // symbolic truncated_rows count, so the K > 0 case cannot be stricter).
  const bool pattern_is_a = r.fill_nnz == 0 && r.lu.nnz() == a.nnz();
  detail::load_pattern_values(r.lu, a, !pattern_is_a);
  r.breakdown = false;
  r.elimination_ops = 0;
  if (scratch == nullptr) {
    detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                                 r.elimination_ops);
  } else {
    detail::ilu_numeric_in_place(r.lu, r.diag_pos, opt, r.breakdown,
                                 r.elimination_ops, *scratch);
  }
}

/// Split a combined LU factor into explicit triangular factors (the
/// sptrsv/sptrsv.h convention): L gets the strict lower part, its unit
/// diagonal implicit and not stored; U gets the diagonal and the strict
/// upper part, the diagonal first in each row.
template <class T>
struct TriangularFactors {
  Csr<T> l;  // strictly lower triangular, unit diagonal implicit
  Csr<T> u;  // upper triangular including diagonal
};

/// One counting pass sizes both factors exactly; one fill pass writes them.
template <class T>
TriangularFactors<T> split_lu(const IluResult<T>& r) {
  const Csr<T>& lu = r.lu;
  const index_t n = lu.rows;
  TriangularFactors<T> f{Csr<T>(n, lu.cols), Csr<T>(n, lu.cols)};
  for (index_t i = 0; i < n; ++i) {
    const index_t begin = lu.rowptr[static_cast<std::size_t>(i)];
    const index_t end = lu.rowptr[static_cast<std::size_t>(i) + 1];
    index_t lower = 0;
    for (index_t p = begin; p < end; ++p)
      if (lu.colind[static_cast<std::size_t>(p)] < i) ++lower;
    f.l.rowptr[static_cast<std::size_t>(i) + 1] =
        f.l.rowptr[static_cast<std::size_t>(i)] + lower;
    f.u.rowptr[static_cast<std::size_t>(i) + 1] =
        f.u.rowptr[static_cast<std::size_t>(i)] + (end - begin - lower);
  }
  f.l.colind.resize(static_cast<std::size_t>(f.l.nnz()));
  f.l.values.resize(static_cast<std::size_t>(f.l.nnz()));
  f.u.colind.resize(static_cast<std::size_t>(f.u.nnz()));
  f.u.values.resize(static_cast<std::size_t>(f.u.nnz()));
  for (index_t i = 0; i < n; ++i) {
    auto pl = static_cast<std::size_t>(f.l.rowptr[static_cast<std::size_t>(i)]);
    auto pu = static_cast<std::size_t>(f.u.rowptr[static_cast<std::size_t>(i)]);
    for (index_t p = lu.rowptr[static_cast<std::size_t>(i)];
         p < lu.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = lu.colind[static_cast<std::size_t>(p)];
      const T v = lu.values[static_cast<std::size_t>(p)];
      if (j < i) {
        f.l.colind[pl] = j;
        f.l.values[pl++] = v;
      } else {
        f.u.colind[pu] = j;
        f.u.values[pu++] = v;
      }
    }
  }
  return f;
}

}  // namespace spcg
