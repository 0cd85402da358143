// The four benchmark workloads (see perfbench/README.md for why each one
// exists and what every metric means).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One reported number. `samples` holds the measurements a median was
/// taken over (empty for exact counts and derived ratios).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;
  std::string note;  // e.g. "computed from array sizes"
};

struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 0.0;  // measurement budget
  bool trace = false;    // traced run: per-layer metrics instead of end-to-end
  SpanLog* log = nullptr;
};

struct RunReport {
  std::uint64_t attempted = 0;  // checked operations (solves, requests)
  std::uint64_t failed = 0;     // not kOk, not converged, or residual over bound
  /// Exact-count invariants that held (e.g. the all-reduce budget,
  /// identical iteration counts across repeats of the same input).
  bool invariants_ok = true;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::int64_t>> counts;  // printed as-is
};

RunReport run_large_pde(const RunConfig& cfg);
RunReport run_suite_sweep(const RunConfig& cfg);
RunReport run_serve_mixed(const RunConfig& cfg);
RunReport run_dist_latency(const RunConfig& cfg);

}  // namespace perfbench
