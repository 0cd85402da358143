// spcg_perfbench — the repository benchmark (see perfbench/README.md).
//
//   spcg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Runs one seeded workload through the library's public API, checks every
// answer from the outside, and prints each metric by name with its unit,
// median, spread and sample count. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the traced pass and
// reports the per-layer metrics, writing the spans to --trace-out.
// perfbench/run.py checks the metric set against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "host.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

using WorkloadFn = RunReport (*)(const RunConfig&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"large_pde", run_large_pde},
      {"suite_sweep", run_suite_sweep},
      {"serve_mixed", run_serve_mixed},
      {"dist_latency", run_dist_latency},
  };
  return w;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload large_pde|suite_sweep|serve_mixed|dist_latency"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage(argv[0]);
      cfg.trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  const auto fn = workloads().find(workload);
  if (fn == workloads().end() || !have_seed || cfg.seconds <= 0.0)
    return usage(argv[0]);

  std::cout << "host " << to_json(describe_host()) << "\n";
  std::cout << "workload " << workload << " seed " << cfg.seed << " seconds "
            << cfg.seconds << " trace " << (cfg.trace ? 1 : 0) << "\n";

  SpanLog log(cfg.trace);
  cfg.log = &log;
  const CpuTicks ticks0 = cpu_ticks();
  RunReport rep;
  try {
    rep = fn->second(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // Steal time explains run-to-run drift on a shared host; it is printed,
  // not reported as a metric.
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total)
    std::cout << "host steal "
              << 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                     static_cast<double>(ticks1.total - ticks0.total)
              << "% of CPU time during the run\n";

  for (const auto& [name, value] : rep.counts)
    std::cout << "count " << name << " = " << value << "\n";

  std::map<std::string, Metric> by_name;
  for (Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "error: metric " << m.name << " is not finite\n";
      return 1;
    }
    by_name[m.name] = std::move(m);
  }

  std::ostringstream json;
  json << "{\"correct\": "
       << (rep.failed == 0 && rep.invariants_ok ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : by_name) {
    std::cout << "metric " << name << " = " << m.value << " " << m.unit;
    if (!m.samples.empty()) {
      std::cout << "  (median of n=" << m.samples.size()
                << ", spread=" << spread(m.samples);
      if (m.samples.size() <= 12) {
        std::cout << ", samples=";
        for (std::size_t i = 0; i < m.samples.size(); ++i)
          std::cout << (i ? "," : "") << m.samples[i];
      }
      std::cout << ")";
    } else
      std::cout << "  (n=1)";
    if (!m.note.empty()) std::cout << "  [" << m.note << "]";
    std::cout << "\n";
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";

  if (cfg.trace) {
    std::cout << "spans " << log.size() << "\n";
    if (!trace_out.empty() && !log.write_chrome_json(trace_out)) {
      std::cerr << "error: cannot write spans to " << trace_out << "\n";
      return 1;
    }
  }
  std::cout << "invariants " << (rep.invariants_ok ? "ok" : "VIOLATED")
            << "\n";
  std::cout << json.str() << std::endl;
  return 0;
}
