// Numeric-only refresh of a SpcgSetup — the values-only fast path of the
// transient subsystem.
//
// The setup pipeline splits cleanly into pattern-only and value-only work:
// ILU(K) symbolic closure, level schedules, wavefront inspection and the
// sparsification *pattern* decision depend only on (rowptr, colind), while
// factor values depend on A's values. When a time-stepping client presents
// a matrix with the same pattern and new values (same `pattern_hash`, new
// `values_hash`), everything symbolic in an existing SpcgSetup is still
// valid — only the numbers must be recomputed.
//
// refresh_setup_numerics() does exactly that: it re-scatters the new values
// through the retained sparsification split (the same entries are kept and
// dropped — the pattern decision is reused verbatim, not re-derived), reruns
// the numeric ILU elimination into the retained symbolic structure via
// ilu_refactorize(), and propagates the combined factor into the split L/U
// the schedules were built for. No symbolic work, no schedule rebuild, and —
// given a prebuilt NumericRefreshWorkspace — no heap allocation.
//
// Stale after a refresh (by design): SparsifyDecision::indicator, steps and
// outcome describe the values the decision was *made* on, not the current
// ones. TransientSession treats them as provenance, not state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/spcg.h"
#include "precond/ilu.h"
#include "sparse/csr.h"

namespace spcg {

/// Precomputed index maps + scratch for refresh_setup_numerics(). Built once
/// per (setup, pattern) by build_numeric_refresh(); every refresh through it
/// is allocation-free. All maps are positions (CSR entry indices), so a
/// refresh is pure gather/scatter over value arrays.
struct NumericRefreshWorkspace {
  /// Scatter scratch for the numeric elimination: size n, every entry -1
  /// between uses (ilu_numeric_in_place restores it).
  std::vector<index_t> pos;
  /// For each a_hat entry: the position of the same (i, j) in A. Empty for
  /// baseline setups (no sparsification — the factorization input is A).
  std::vector<index_t> keep_pos;
  /// For each entry of the residual matrix S: its position in A.
  std::vector<index_t> s_pos;
  /// For each entry of factors.l / factors.u: its position in the combined
  /// factorization.lu.
  std::vector<index_t> l_map;
  std::vector<index_t> u_map;
  /// Shape guards: the A this workspace was built against.
  index_t expected_rows = 0;
  index_t expected_nnz = 0;
};

/// Build the refresh maps for `setup` against the matrix `a` it was built
/// from (same pattern; values are irrelevant here). One merge-walk over A's
/// rows recovers the keep/drop split positions; the factor maps come from
/// binary search in the combined LU pattern.
template <class T>
NumericRefreshWorkspace build_numeric_refresh(const SpcgSetup<T>& setup,
                                              const Csr<T>& a) {
  NumericRefreshWorkspace ws;
  ws.expected_rows = a.rows;
  ws.expected_nnz = a.nnz();
  ws.pos.assign(static_cast<std::size_t>(a.rows), -1);

  if (setup.decision.has_value()) {
    const Csr<T>& a_hat = setup.decision->chosen.a_hat;
    const Csr<T>& s = setup.decision->chosen.s;
    SPCG_CHECK(a_hat.rows == a.rows && s.rows == a.rows);
    SPCG_CHECK(a_hat.nnz() + s.nnz() == a.nnz());
    ws.keep_pos.assign(static_cast<std::size_t>(a_hat.nnz()), -1);
    ws.s_pos.assign(static_cast<std::size_t>(s.nnz()), -1);
    // Â and S partition A's entries row by row, both column-sorted: one
    // synchronized walk over each A row assigns every position.
    for (index_t i = 0; i < a.rows; ++i) {
      index_t ph = a_hat.rowptr[static_cast<std::size_t>(i)];
      const index_t ph_end = a_hat.rowptr[static_cast<std::size_t>(i) + 1];
      index_t ps = s.rowptr[static_cast<std::size_t>(i)];
      const index_t ps_end = s.rowptr[static_cast<std::size_t>(i) + 1];
      for (index_t pa = a.rowptr[static_cast<std::size_t>(i)];
           pa < a.rowptr[static_cast<std::size_t>(i) + 1]; ++pa) {
        const index_t col = a.colind[static_cast<std::size_t>(pa)];
        if (ph < ph_end &&
            a_hat.colind[static_cast<std::size_t>(ph)] == col) {
          ws.keep_pos[static_cast<std::size_t>(ph++)] = pa;
        } else if (ps < ps_end &&
                   s.colind[static_cast<std::size_t>(ps)] == col) {
          ws.s_pos[static_cast<std::size_t>(ps++)] = pa;
        } else {
          SPCG_CHECK_MSG(false, "sparsify split does not partition A at row "
                                    << i << " col " << col);
        }
      }
      SPCG_CHECK(ph == ph_end && ps == ps_end);
    }
  }

  const Csr<T>& lu = setup.factorization.lu;
  auto map_factor = [&](const Csr<T>& f, std::vector<index_t>& map,
                        const char* name) {
    map.assign(static_cast<std::size_t>(f.nnz()), -1);
    for (index_t i = 0; i < f.rows; ++i)
      for (index_t p = f.rowptr[static_cast<std::size_t>(i)];
           p < f.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t q = lu.find(i, f.colind[static_cast<std::size_t>(p)]);
        SPCG_CHECK_MSG(q >= 0, name << " entry missing from combined factor "
                                       "at row " << i);
        map[static_cast<std::size_t>(p)] = q;
      }
  };
  map_factor(setup.factors.l, ws.l_map, "L");
  map_factor(setup.factors.u, ws.u_map, "U");
  return ws;
}

/// Values-only refresh: recompute every numeric artifact of `setup` from
/// `a_new` (same pattern as the matrix the setup was built from), reusing
/// the symbolic structure verbatim. With `ws` from build_numeric_refresh()
/// this performs zero heap allocations.
///
/// Equivalence guarantee: when a cold spcg_setup(a_new, opt) would make the
/// same sparsification *pattern* decision (same kept/dropped entry set —
/// e.g. a single-ratio configuration, or a values change that preserves the
/// drop ordering), the refreshed factors are bitwise-equal to that cold
/// setup's. verify_numeric_refactorize (analysis/verify.h) checks this.
template <class T>
void refresh_setup_numerics(SpcgSetup<T>& setup, const Csr<T>& a_new,
                            const SpcgOptions& opt,
                            NumericRefreshWorkspace& ws) {
  SPCG_CHECK_MSG(a_new.rows == ws.expected_rows &&
                     a_new.nnz() == ws.expected_nnz,
                 "refresh workspace was built for a different pattern");

  const Csr<T>* input = &a_new;
  if (setup.decision.has_value()) {
    SparsifySplit<T>& split = setup.decision->chosen;
    SPCG_CHECK(static_cast<std::size_t>(split.a_hat.nnz()) ==
               ws.keep_pos.size());
    SPCG_CHECK(static_cast<std::size_t>(split.s.nnz()) == ws.s_pos.size());
    for (std::size_t j = 0; j < ws.keep_pos.size(); ++j)
      split.a_hat.values[j] =
          a_new.values[static_cast<std::size_t>(ws.keep_pos[j])];
    for (std::size_t j = 0; j < ws.s_pos.size(); ++j)
      split.s.values[j] = a_new.values[static_cast<std::size_t>(ws.s_pos[j])];
    input = &split.a_hat;
  }

  ilu_refactorize(setup.factorization, *input, opt.ilu,
                  std::span<index_t>(ws.pos));

  // Propagate the combined factor into the split L/U the level schedules
  // reference — value writes only, the triangular patterns are untouched.
  Csr<T>& l = setup.factors.l;
  Csr<T>& u = setup.factors.u;
  SPCG_CHECK(l.values.size() == ws.l_map.size() &&
             u.values.size() == ws.u_map.size());
  const std::vector<T>& lu_values = setup.factorization.lu.values;
  for (std::size_t j = 0; j < ws.l_map.size(); ++j)
    l.values[j] = lu_values[static_cast<std::size_t>(ws.l_map[j])];
  for (std::size_t j = 0; j < ws.u_map.size(); ++j)
    u.values[j] = lu_values[static_cast<std::size_t>(ws.u_map[j])];
}

}  // namespace spcg
