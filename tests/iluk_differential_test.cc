// Differential tests for the ILU(K) setup. The level-pruned symbolic phase
// (bitset row, level-ordered fan-out store) and the numeric phase with its
// contiguous-tail update must reproduce, bitwise, the sorted-linked-list
// symbolic merge and the masked pos[] elimination they replaced. Those are
// copied here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/spcg.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "support/rng.h"

namespace spcg {
namespace {

// --- oracle ------------------------------------------------------------------

/// Row-by-row sorted-linked-list merge (SPARSKIT iluk / Saad Alg. 10.6):
/// every stored U entry of every earlier row is fanned out and entries above
/// level k are skipped one by one. The cap keeps the max_row_fill lowest
/// (level, column) pairs.
IlukSymbolic oracle_symbolic(const Csr<double>& a, index_t k,
                             index_t max_row_fill = 0) {
  const index_t n = a.rows;
  constexpr index_t kNone = -1;
  constexpr index_t kAbsent = std::numeric_limits<index_t>::max();
  IlukSymbolic out;
  out.pattern.rows = n;
  out.pattern.cols = n;
  out.pattern.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::vector<index_t>> u_cols(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> u_levs(static_cast<std::size_t>(n));
  const index_t head = n;
  std::vector<index_t> next(static_cast<std::size_t>(n) + 1, kNone);
  std::vector<index_t> lev(static_cast<std::size_t>(n), kAbsent);
  auto nx = [&](index_t v) -> index_t& {
    return next[static_cast<std::size_t>(v)];
  };
  auto lv = [&](index_t v) -> index_t& {
    return lev[static_cast<std::size_t>(v)];
  };
  std::vector<index_t> row_cols, row_levs;
  std::vector<std::pair<index_t, index_t>> keep;
  for (index_t i = 0; i < n; ++i) {
    index_t prev = head;
    for (const index_t j : a.row_cols(i)) {
      nx(prev) = j;
      lv(j) = 0;
      prev = j;
    }
    nx(prev) = kNone;
    for (index_t kk = nx(head); kk != kNone && kk < i; kk = nx(kk)) {
      const index_t lev_ik = lv(kk);
      index_t ins = kk;
      const auto& cols_k = u_cols[static_cast<std::size_t>(kk)];
      const auto& levs_k = u_levs[static_cast<std::size_t>(kk)];
      for (std::size_t t = 0; t < cols_k.size(); ++t) {
        const index_t j = cols_k[t];
        const index_t new_lev = lev_ik + levs_k[t] + 1;
        if (new_lev > k) continue;
        if (lv(j) != kAbsent) {
          lv(j) = std::min(lv(j), new_lev);
        } else {
          while (nx(ins) != kNone && nx(ins) < j) ins = nx(ins);
          nx(j) = nx(ins);
          nx(ins) = j;
          lv(j) = new_lev;
        }
      }
    }
    row_cols.clear();
    row_levs.clear();
    for (index_t j = nx(head); j != kNone; j = nx(j)) {
      row_cols.push_back(j);
      row_levs.push_back(lv(j));
    }
    if (max_row_fill > 0 &&
        static_cast<index_t>(row_cols.size()) > max_row_fill) {
      keep.clear();
      for (std::size_t t = 0; t < row_cols.size(); ++t)
        keep.emplace_back(row_levs[t], row_cols[t]);
      std::stable_sort(keep.begin(), keep.end());
      keep.resize(static_cast<std::size_t>(max_row_fill));
      std::sort(keep.begin(), keep.end(),
                [](const auto& x, const auto& y) { return x.second < y.second; });
      row_cols.clear();
      row_levs.clear();
      for (const auto& [l, j] : keep) {
        row_cols.push_back(j);
        row_levs.push_back(l);
      }
      ++out.truncated_rows;
    }
    for (std::size_t t = 0; t < row_cols.size(); ++t) {
      out.pattern.colind.push_back(row_cols[t]);
      out.levels.push_back(row_levs[t]);
      if (row_cols[t] > i) {
        u_cols[static_cast<std::size_t>(i)].push_back(row_cols[t]);
        u_levs[static_cast<std::size_t>(i)].push_back(row_levs[t]);
      }
    }
    out.pattern.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.pattern.colind.size());
    for (index_t j = nx(head); j != kNone;) {
      const index_t nj = nx(j);
      lv(j) = kAbsent;
      nx(j) = kNone;
      j = nj;
    }
    nx(head) = kNone;
  }
  out.pattern.values.assign(out.pattern.colind.size(), char{1});
  return out;
}

/// IKJ elimination restricted to the pattern, every update through pos[].
void oracle_numeric(Csr<double>& lu, std::vector<index_t>& diag_pos,
                    const IluOptions& opt, bool& breakdown,
                    std::uint64_t& elimination_ops) {
  const index_t n = lu.rows;
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  diag_pos.assign(static_cast<std::size_t>(n), -1);
  auto col = [&](index_t p) { return lu.colind[static_cast<std::size_t>(p)]; };
  auto val = [&](index_t p) -> double& {
    return lu.values[static_cast<std::size_t>(p)];
  };
  for (index_t i = 0; i < n; ++i) {
    const index_t row_begin = lu.rowptr[static_cast<std::size_t>(i)];
    const index_t row_end = lu.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t p = row_begin; p < row_end; ++p)
      pos[static_cast<std::size_t>(col(p))] = p;
    double row_norm = 0.0;
    for (index_t p = row_begin; p < row_end; ++p)
      row_norm = std::max(row_norm, std::abs(val(p)));
    for (index_t p = row_begin; p < row_end; ++p) {
      const index_t k = col(p);
      if (k >= i) break;
      const index_t dk = diag_pos[static_cast<std::size_t>(k)];
      ASSERT_GE(dk, 0);
      const double lik = val(p) / val(dk);
      val(p) = lik;
      const index_t u_end = lu.rowptr[static_cast<std::size_t>(k) + 1];
      elimination_ops += static_cast<std::uint64_t>(u_end - (dk + 1)) + 1;
      for (index_t q = dk + 1; q < u_end; ++q) {
        const index_t pj = pos[static_cast<std::size_t>(col(q))];
        if (pj >= 0) val(pj) -= lik * val(q);
      }
    }
    const index_t di = pos[static_cast<std::size_t>(i)];
    ASSERT_GE(di, 0) << "row " << i;
    diag_pos[static_cast<std::size_t>(i)] = di;
    double& pivot = val(di);
    const double floor = opt.pivot_floor * std::max(row_norm, 1.0);
    if (std::abs(pivot) < floor) {
      pivot = pivot < 0.0 ? -floor : floor;
      breakdown = true;
    }
    for (index_t p = row_begin; p < row_end; ++p)
      pos[static_cast<std::size_t>(col(p))] = -1;
  }
}

/// Oracle ILU(K) on an oracle pattern: the library's value load, then the
/// oracle numeric phase.
IluResult<double> oracle_factor(const Csr<double>& a, const IlukSymbolic& sym) {
  IluResult<double> r;
  r.lu.rows = a.rows;
  r.lu.cols = a.cols;
  r.lu.rowptr = sym.pattern.rowptr;
  r.lu.colind = sym.pattern.colind;
  r.lu.values.resize(r.lu.colind.size());
  detail::load_pattern_values(r.lu, a, sym.truncated_rows > 0);
  oracle_numeric(r.lu, r.diag_pos, IluOptions{}, r.breakdown,
                 r.elimination_ops);
  r.fill_nnz = r.lu.nnz() - a.nnz();
  return r;
}

// --- comparison --------------------------------------------------------------

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t t = 0; t < x.size(); ++t)
    if (std::bit_cast<std::uint64_t>(x[t]) != std::bit_cast<std::uint64_t>(y[t]))
      return false;
  return true;
}

void expect_same_symbolic(const IlukSymbolic& got, const IlukSymbolic& want,
                          const std::string& what) {
  EXPECT_EQ(got.pattern.rowptr, want.pattern.rowptr) << what;
  EXPECT_EQ(got.pattern.colind, want.pattern.colind) << what;
  EXPECT_EQ(got.levels, want.levels) << what;
  EXPECT_EQ(got.truncated_rows, want.truncated_rows) << what;
}

void expect_same_factor(const IluResult<double>& got,
                        const IluResult<double>& want,
                        const std::string& what) {
  EXPECT_EQ(got.lu.rowptr, want.lu.rowptr) << what;
  EXPECT_EQ(got.lu.colind, want.lu.colind) << what;
  EXPECT_TRUE(same_bits(got.lu.values, want.lu.values)) << what;
  EXPECT_EQ(got.diag_pos, want.diag_pos) << what;
  EXPECT_EQ(got.elimination_ops, want.elimination_ops) << what;
  EXPECT_EQ(got.breakdown, want.breakdown) << what;
  EXPECT_EQ(got.fill_nnz, want.fill_nnz) << what;
}

/// Symbolic and full factor against the oracle. A capped oracle must keep
/// every diagonal (the one case where the capping rules differ).
void check_iluk(const Csr<double>& a, index_t k, const std::string& what,
                index_t max_row_fill = 0) {
  const IlukSymbolic want = oracle_symbolic(a, k, max_row_fill);
  for (index_t i = 0; i < a.rows; ++i)
    ASSERT_GE(want.pattern.find(i, i), 0) << what << " row " << i;
  expect_same_symbolic(iluk_symbolic(a, k, max_row_fill), want, what);
  expect_same_factor(iluk(a, k, IluOptions{}, max_row_fill),
                     oracle_factor(a, want), what);
}

const GeneratedMatrix& suite_matrix(const std::string& name) {
  static const std::vector<GeneratedMatrix> suite = [] {
    std::vector<GeneratedMatrix> s;
    for (index_t id = 0; id < suite_size(); ++id)
      s.push_back(generate_suite_matrix(id));
    return s;
  }();
  for (const GeneratedMatrix& g : suite)
    if (g.spec.name == name) return g;
  throw Error("no suite matrix " + name);
}

// --- tests -------------------------------------------------------------------

// Uncapped, K = 1 fills ~25 suite matrices (ce_*, econ_*, opt_ne_*) almost
// densely, at 2-30 s of elimination each. This cap trips only there and
// bounds them; every other suite matrix runs uncapped in effect.
constexpr index_t kLevelOneRowCap = 128;

TEST(IlukDifferential, SuiteAtLevelOne) {
  for (const MatrixSpec& spec : suite_specs())
    check_iluk(suite_matrix(spec.name).a, 1, spec.name + " K=1",
               kLevelOneRowCap);
}

TEST(IlukDifferential, SmallSuiteAtLevelTwo) {
  for (const MatrixSpec& spec : suite_specs()) {
    const Csr<double>& a = suite_matrix(spec.name).a;
    if (a.rows <= 1000) check_iluk(a, 2, spec.name + " K=2");
  }
}

TEST(IlukDifferential, BenchmarkMembersAtLevelTwo) {
  for (const char* name : {"ac_band_4000_16", "econ_1500_8"})
    check_iluk(suite_matrix(name).a, 2, std::string(name) + " K=2");
}

TEST(IlukDifferential, HigherLevelsAndLongTails) {
  // Deep levels on a grid, and a dense band whose contiguous U tails take
  // the straight-run update.
  check_iluk(gen_poisson2d(12, 12), 6, "poisson2d 12x12 K=6");
  check_iluk(gen_grid_laplacian(5, 5, 1.0, 0.5, 3), 60, "grid 5x5 K=60");
  check_iluk(gen_banded(300, 20, 0.2, true, 7), 3, "band 300/20 K=3");
}

TEST(IlukDifferential, RowCapOnBenchmarkMember) {
  const Csr<double>& a = suite_matrix("ac_band_4000_16").a;
  ASSERT_GT(iluk_symbolic(a, 2, 40).truncated_rows, 0);
  check_iluk(a, 2, "ac_band_4000_16 K=2 cap 40", 40);
}

TEST(IlukDifferential, RefactorizeDriftedIlukSetup) {
  const Csr<double>& a = suite_matrix("ac_band_4000_16").a;
  SpcgOptions opt;
  opt.preconditioner = PrecondKind::kIluK;
  opt.fill_level = 2;
  SpcgSetup<double> setup = spcg_setup(a, opt);
  ASSERT_TRUE(setup.decision.has_value());
  Csr<double> drifted = setup.decision->chosen.a_hat;
  Rng rng(17);
  for (double& v : drifted.values) v *= 1.0 + 0.05 * rng.uniform();

  IluScratch scratch(a.rows);
  ilu_refactorize(setup.factorization, drifted, IluOptions{}, &scratch);

  IluResult<double> want;
  want.lu = setup.factorization.lu;
  detail::load_pattern_values(want.lu, drifted, /*allow_missing=*/false);
  oracle_numeric(want.lu, want.diag_pos, IluOptions{}, want.breakdown,
                 want.elimination_ops);
  want.fill_nnz = setup.factorization.fill_nnz;
  expect_same_factor(setup.factorization, want, "refactorized ac_band K=2");
  EXPECT_TRUE(std::all_of(scratch.pos.begin(), scratch.pos.end(),
                          [](index_t p) { return p == -1; }));
}

}  // namespace
}  // namespace spcg
