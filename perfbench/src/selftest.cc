// Self-test of the benchmark's own machinery: seeded input generation,
// order statistics and span self times. Run with
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "gen/suite.h"
#include "inputs.h"
#include "spans.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<RequestPlan> plans(std::uint64_t seed, std::size_t n) {
  RequestStream s(seed, serve_pool_ids().size());
  std::vector<RequestPlan> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

void test_same_seed_same_inputs() {
  expect(checksum(large_pde_matrix(7)) == checksum(large_pde_matrix(7)),
         "large_pde matrix repeats for one seed");
  const Csr<double> a = spcg::generate_suite_matrix(1).a;
  expect(checksum(workload_rhs(a, 7, 3)) == checksum(workload_rhs(a, 7, 3)),
         "right-hand side repeats for one seed");
  expect(checksum(dist_rhs(a, 7)) == checksum(dist_rhs(a, 7)),
         "dist_latency right-hand side repeats for one seed");
  expect(checksum(plans(7, 512)) == checksum(plans(7, 512)),
         "request stream repeats for one seed");
  expect(checksum(drift_matrix(a, 0.9)) == checksum(drift_matrix(a, 0.9)),
         "drift repeats for one factor");
}

void test_other_seed_other_inputs() {
  expect(checksum(large_pde_matrix(7)) != checksum(large_pde_matrix(8)),
         "large_pde coefficient field changes with the field seed");
  const Csr<double> a = spcg::generate_suite_matrix(1).a;
  expect(checksum(workload_rhs(a, 7, 3)) != checksum(workload_rhs(a, 8, 3)),
         "right-hand side changes with the seed");
  expect(checksum(workload_rhs(a, 7, 3)) != checksum(workload_rhs(a, 7, 4)),
         "right-hand sides within a run differ");
  expect(checksum(dist_rhs(a, 7)) != checksum(dist_rhs(a, 8)),
         "dist_latency right-hand side changes with the seed");
  const auto p7 = plans(7, 512), p8 = plans(8, 512);
  bool order_differs = false, drift_differs = false, rhs_differs = false;
  std::size_t drifts = 0;
  for (std::size_t i = 0; i < p7.size(); ++i) {
    order_differs |= p7[i].pool_slot != p8[i].pool_slot;
    drift_differs |= p7[i].drift_factor != p8[i].drift_factor;
    rhs_differs |= p7[i].rhs_seed != p8[i].rhs_seed;
    drifts += p7[i].drift ? 1 : 0;
  }
  expect(order_differs, "request order changes with the seed");
  expect(drift_differs, "drift factors change with the seed");
  expect(rhs_differs, "request right-hand sides change with the seed");
  const double share = static_cast<double>(drifts) / p7.size();
  expect(share > 0.22 && share < 0.38, "about 30% of requests drift");
  for (const RequestPlan& p : p7) {
    expect(p.pool_slot >= 0 && p.pool_slot < 24, "pool slot in range");
    if (p.drift)
      expect(p.drift_factor >= 0.8 && p.drift_factor < 1.0,
             "drift factor in [0.8, 1)");
  }
}

void test_drift_keeps_pattern_and_diagonal() {
  const Csr<double> a = spcg::generate_suite_matrix(5).a;
  const Csr<double> d = drift_matrix(a, 0.85);
  expect(d.rowptr == a.rowptr && d.colind == a.colind, "drift keeps pattern");
  bool ok = true;
  for (index_t i = 0; i < a.rows; ++i)
    for (index_t p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const double want = a.colind[p] == i ? a.values[p] : 0.85 * a.values[p];
      ok &= d.values[p] == want;
    }
  expect(ok, "drift scales exactly the off-diagonals");
}

void test_quartiles_match_python() {
  // Reference values from Python's statistics.quantiles(v, n=4).
  double q1 = 0.0, q3 = 0.0;
  quartiles({1, 2}, &q1, &q3);
  expect(near(q1, 0.75) && near(q3, 2.25), "quartiles of 2 samples");
  quartiles({3, 1, 4, 1, 5}, &q1, &q3);
  expect(near(q1, 1.0) && near(q3, 4.5), "quartiles of 5 samples");
  quartiles({2.5, 1, 4, 8, 3, 7, 6, 5, 9, 10}, &q1, &q3);
  expect(near(q1, 2.875) && near(q3, 8.25), "quartiles of 10 samples");
  expect(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 2, 3}), 2.5),
         "median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(near(percentile(v, 99.0), 990.0), "nearest-rank p99");
}

void test_span_self_time() {
  SpanLog log(true);
  {
    const auto outer = log.span("outer", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    {
      const auto inner = log.span("inner", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(6));
    }
  }
  const auto t = log.totals();
  const double outer_total = t.at("outer").total_s;
  const double inner_total = t.at("inner").total_s;
  expect(near(t.at("outer").self_s, outer_total - inner_total),
         "self time excludes the child span");
  expect(t.at("inner").self_s == inner_total, "leaf self time is its total");
  SpanLog off(false);
  { const auto s = off.span("x"); }
  expect(off.size() == 0, "disabled log records nothing");
}

}  // namespace

int main() {
  test_same_seed_same_inputs();
  test_other_seed_other_inputs();
  test_drift_keeps_pattern_and_diagonal();
  test_quartiles_match_python();
  test_span_self_time();
  if (failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
