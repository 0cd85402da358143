// Differential tests for the SpTRSV kernels. The factors of split_lu() store
// L strictly lower (unit diagonal implicit) and U diagonal-first; every
// executor over them must reproduce, bitwise, the stored-unit-diagonal
// kernels they replaced. Those kernels are copied here as the oracle, with
// the stored-diagonal L they read.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/race_detector.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "precond/ilu.h"
#include "precond/preconditioner.h"
#include "runtime/batch.h"
#include "solver/pcg.h"
#include "sptrsv/sptrsv.h"
#include "support/rng.h"
#include "wavefront/levels.h"

namespace spcg {
namespace {

// --- oracle ------------------------------------------------------------------

/// L in the stored-diagonal convention: the strict lower part of `lu` with
/// a unit diagonal closing each row.
Csr<double> oracle_unit_lower(const Csr<double>& lu) {
  std::vector<Triplet<double>> ts;
  for (index_t i = 0; i < lu.rows; ++i) {
    for (index_t p = lu.rowptr[static_cast<std::size_t>(i)];
         p < lu.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = lu.colind[static_cast<std::size_t>(p)];
      if (j < i) ts.push_back({i, j, lu.values[static_cast<std::size_t>(p)]});
    }
    ts.push_back({i, i, 1.0});
  }
  return csr_from_triplets<double>(lu.rows, lu.cols, std::move(ts));
}

/// Stored-diagonal forward substitution, branching on every entry.
void oracle_lower(const Csr<double>& l, std::span<const double> b,
                  std::span<double> x) {
  for (index_t i = 0; i < l.rows; ++i) {
    double acc = b[static_cast<std::size_t>(i)];
    double diag = 0.0;
    for (index_t p = l.rowptr[static_cast<std::size_t>(i)];
         p < l.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = l.colind[static_cast<std::size_t>(p)];
      if (j < i)
        acc -= l.values[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(j)];
      else if (j == i)
        diag = l.values[static_cast<std::size_t>(p)];
    }
    ASSERT_NE(diag, 0.0) << "row " << i;
    x[static_cast<std::size_t>(i)] = acc / diag;
  }
}

/// Stored-diagonal backward substitution, branching on every entry.
void oracle_upper(const Csr<double>& u, std::span<const double> b,
                  std::span<double> x) {
  for (index_t i = u.rows - 1; i >= 0; --i) {
    double acc = b[static_cast<std::size_t>(i)];
    double diag = 0.0;
    for (index_t p = u.rowptr[static_cast<std::size_t>(i)];
         p < u.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = u.colind[static_cast<std::size_t>(p)];
      if (j > i)
        acc -= u.values[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(j)];
      else if (j == i)
        diag = u.values[static_cast<std::size_t>(p)];
    }
    ASSERT_NE(diag, 0.0) << "row " << i;
    x[static_cast<std::size_t>(i)] = acc / diag;
  }
}

/// The full apply M^{-1} r = U^{-1} L^{-1} r through the oracle kernels.
class OracleIluPreconditioner final : public Preconditioner<double> {
 public:
  explicit OracleIluPreconditioner(const IluResult<double>& r)
      : l_(oracle_unit_lower(r.lu)), u_(split_lu(r).u),
        tmp_(static_cast<std::size_t>(r.lu.rows)) {}
  void apply(std::span<const double> r, std::span<double> z) const override {
    oracle_lower(l_, r, std::span<double>(tmp_));
    oracle_upper(u_, std::span<const double>(tmp_), z);
  }
  [[nodiscard]] index_t rows() const override { return l_.rows; }

 private:
  Csr<double> l_, u_;
  mutable std::vector<double> tmp_;
};

// --- helpers -----------------------------------------------------------------

/// Index of the first bitwise difference, or -1.
std::int64_t first_bit_difference(std::span<const double> a,
                                  std::span<const double> b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<std::int64_t>(i);
  return -1;
}

#define EXPECT_BITWISE(actual, expected, what)                              \
  EXPECT_EQ(first_bit_difference(std::span<const double>(actual),           \
                                 std::span<const double>(expected)),         \
            -1)                                                             \
      << what

using Vec = std::vector<double>;

/// Solve with every executor and compare against the oracle: the L and U
/// solves alone (serial, level-scheduled, checked, multi-RHS with 1 and 3
/// columns) and the full apply (each TrsvExec, and batched over 3 columns).
void expect_every_executor_matches_oracle(const IluResult<double>& r,
                                          std::uint64_t seed) {
  const TriangularFactors<double> f = split_lu(r);
  const Csr<double> l_oracle = oracle_unit_lower(r.lu);
  const LevelSchedule ls = level_schedule(f.l, Triangle::kLower);
  const LevelSchedule us = level_schedule(f.u, Triangle::kUpper);
  const auto n = static_cast<std::size_t>(r.lu.rows);

  constexpr std::size_t kCols = 3;
  std::vector<Vec> bs(kCols, Vec(n));
  Rng rng(seed);
  for (Vec& b : bs)
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
  // Oracle references per column: L alone, U alone, the full apply.
  std::vector<Vec> l_ref(kCols, Vec(n)), u_ref(kCols, Vec(n)),
      apply_ref(kCols, Vec(n));
  for (std::size_t c = 0; c < kCols; ++c) {
    oracle_lower(l_oracle, bs[c], l_ref[c]);
    oracle_upper(f.u, bs[c], u_ref[c]);
    oracle_upper(f.u, l_ref[c], apply_ref[c]);
  }
  const Vec& b = bs[0];

  Vec x(n);
  sptrsv_lower_serial(f.l, std::span<const double>(b), std::span<double>(x));
  EXPECT_BITWISE(x, l_ref[0], "L serial");
  sptrsv_upper_serial(f.u, std::span<const double>(b), std::span<double>(x));
  EXPECT_BITWISE(x, u_ref[0], "U serial");
  sptrsv_lower_levels(f.l, ls, std::span<const double>(b),
                      std::span<double>(x));
  EXPECT_BITWISE(x, l_ref[0], "L level-scheduled");
  sptrsv_upper_levels(f.u, us, std::span<const double>(b),
                      std::span<double>(x));
  EXPECT_BITWISE(x, u_ref[0], "U level-scheduled");
  EXPECT_TRUE(analysis::sptrsv_lower_levels_checked(
                  f.l, ls, std::span<const double>(b), std::span<double>(x))
                  .ok());
  EXPECT_BITWISE(x, l_ref[0], "L checked");
  EXPECT_TRUE(analysis::sptrsv_upper_levels_checked(
                  f.u, us, std::span<const double>(b), std::span<double>(x))
                  .ok());
  EXPECT_BITWISE(x, u_ref[0], "U checked");

  for (const std::size_t k : {std::size_t{1}, kCols}) {
    std::vector<Vec> xs(k, Vec(n));
    std::vector<const double*> in(k);
    std::vector<double*> out(k);
    for (std::size_t c = 0; c < k; ++c) {
      in[c] = bs[c].data();
      out[c] = xs[c].data();
    }
    sptrsv_lower_levels_multi(f.l, ls, std::span<const double* const>(in),
                              std::span<double* const>(out));
    for (std::size_t c = 0; c < k; ++c)
      EXPECT_BITWISE(xs[c], l_ref[c], "L multi k=" << k << " col " << c);
    sptrsv_upper_levels_multi(f.u, us, std::span<const double* const>(in),
                              std::span<double* const>(out));
    for (std::size_t c = 0; c < k; ++c)
      EXPECT_BITWISE(xs[c], u_ref[c], "U multi k=" << k << " col " << c);
  }

  for (const TrsvExec exec :
       {TrsvExec::kSerial, TrsvExec::kLevelScheduled,
        TrsvExec::kLevelScheduledChecked}) {
    const IluApplier<double> m(f, ls, us, exec);
    m.apply(std::span<const double>(b), std::span<double>(x));
    EXPECT_BITWISE(x, apply_ref[0],
                   "apply exec " << static_cast<int>(exec));
  }
  BatchedIluApplier<double> batched(f, ls, us, kCols);
  std::vector<Vec> zs(kCols, Vec(n));
  std::vector<const double*> in(kCols);
  std::vector<double*> out(kCols);
  for (std::size_t c = 0; c < kCols; ++c) {
    in[c] = bs[c].data();
    out[c] = zs[c].data();
  }
  batched.apply(std::span<const double* const>(in),
                std::span<double* const>(out));
  for (std::size_t c = 0; c < kCols; ++c)
    EXPECT_BITWISE(zs[c], apply_ref[c], "batched apply col " << c);
}

index_t suite_index(const std::string& name) {
  for (const MatrixSpec& s : suite_specs())
    if (s.name == name) return s.id;
  ADD_FAILURE() << "no suite matrix " << name;
  return 0;
}

// --- tests -------------------------------------------------------------------

TEST(SptrsvDifferential, SuiteIlu0EveryExecutorMatchesOracle) {
  for (index_t id = 0; id < suite_size(); ++id) {
    const GeneratedMatrix g = generate_suite_matrix(id);
    SCOPED_TRACE(g.spec.name);
    expect_every_executor_matches_oracle(ilu0(g.a),
                                         static_cast<std::uint64_t>(id) + 1);
  }
}

TEST(SptrsvDifferential, IluK2MembersEveryExecutorMatchesOracle) {
  // The two ILU(K=2) members of the suite sweep benchmark: fill adds
  // entries that are not in A's pattern to both triangles.
  for (const char* name : {"ac_band_4000_16", "econ_1500_8"}) {
    SCOPED_TRACE(name);
    const GeneratedMatrix g = generate_suite_matrix(suite_index(name));
    const IluResult<double> r = iluk(g.a, 2);
    ASSERT_GT(r.fill_nnz, 0);
    expect_every_executor_matches_oracle(r, 77);
  }
}

TEST(SptrsvDifferential, PcgIteratesMatchOracleKernelsBitwise) {
  const Csr<double> a = gen_varcoef2d(40, 40, 1.0, 11);
  const std::vector<double> b = make_rhs(a, 5);
  const IluResult<double> r = ilu0(a);
  const IluPreconditioner<double> m(r);
  const OracleIluPreconditioner oracle(r);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  opt.record_history = true;
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined_pcg" : "pcg");
    const SolveResult<double> got =
        pipelined ? pipelined_pcg(a, b, m, opt) : pcg(a, b, m, opt);
    const SolveResult<double> want =
        pipelined ? pipelined_pcg(a, b, oracle, opt) : pcg(a, b, oracle, opt);
    EXPECT_TRUE(got.converged());
    EXPECT_GT(got.iterations, 10);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_BITWISE(got.x, want.x, "x");
    EXPECT_BITWISE(got.residual_history, want.residual_history, "history");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_residual_norm),
              std::bit_cast<std::uint64_t>(want.final_residual_norm));
  }
}

/// Every executor of one triangle must throw spcg::Error naming `row`.
void expect_every_executor_rejects(const Csr<double>& m, Triangle tri,
                                   index_t row) {
  const bool lower = tri == Triangle::kLower;
  const LevelSchedule s = level_schedule(m, tri);
  const auto n = static_cast<std::size_t>(m.rows);
  Vec b(n, 1.0), x(n);
  const double* in[] = {b.data()};
  double* out[] = {x.data()};
  const std::string needle = std::string(lower ? "L" : "U") + " row " +
                             std::to_string(row);
  auto expect_throw = [&](const char* what, auto&& solve) {
    try {
      solve();
      ADD_FAILURE() << what << ": no throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << what << ": " << e.what();
    }
  };
  const std::span<const double> bv(b);
  const std::span<double> xv(x);
  expect_throw("serial", [&] {
    lower ? sptrsv_lower_serial(m, bv, xv) : sptrsv_upper_serial(m, bv, xv);
  });
  expect_throw("levels", [&] {
    lower ? sptrsv_lower_levels(m, s, bv, xv)
          : sptrsv_upper_levels(m, s, bv, xv);
  });
  expect_throw("multi", [&] {
    const std::span<const double* const> ins(in);
    const std::span<double* const> outs(out);
    lower ? sptrsv_lower_levels_multi(m, s, ins, outs)
          : sptrsv_upper_levels_multi(m, s, ins, outs);
  });
  expect_throw("checked", [&] {
    lower ? (void)analysis::sptrsv_lower_levels_checked(m, s, bv, xv)
          : (void)analysis::sptrsv_upper_levels_checked(m, s, bv, xv);
  });
}

TEST(SptrsvDifferential, MalformedFactorRowsFailFast) {
  // L: a stored unit diagonal, and an entry above the diagonal (row 1).
  expect_every_executor_rejects(
      csr_from_triplets<double>(3, 3, {{1, 0, 0.5}, {2, 1, 0.25}, {2, 2, 1.0}}),
      Triangle::kLower, 2);
  expect_every_executor_rejects(
      csr_from_triplets<double>(3, 3, {{1, 2, 0.5}, {2, 0, 0.25}}),
      Triangle::kLower, 1);
  // U: a zero pivot, a missing pivot, and an entry below the diagonal.
  expect_every_executor_rejects(
      csr_from_triplets<double>(3, 3, {{0, 0, 2.0}, {1, 1, 0.0}, {2, 2, 1.0}}),
      Triangle::kUpper, 1);
  expect_every_executor_rejects(
      csr_from_triplets<double>(3, 3, {{0, 0, 2.0}, {1, 2, 1.0}, {2, 2, 1.0}}),
      Triangle::kUpper, 1);
  expect_every_executor_rejects(
      csr_from_triplets<double>(3, 3, {{0, 0, 2.0}, {1, 1, 1.0}, {2, 0, 1.0},
                                       {2, 2, 1.0}}),
      Triangle::kUpper, 2);
}

}  // namespace
}  // namespace spcg
