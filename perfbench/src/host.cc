#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Size of the highest cache level sysfs lists for cpu0 (what lscpu shows).
std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string text;
    if (!(f >> text) || text.empty()) continue;
    std::size_t mult = 1;
    const char unit = text.back();
    if (unit == 'K') mult = std::size_t{1} << 10;
    if (unit == 'M') mult = std::size_t{1} << 20;
    if (unit == 'G') mult = std::size_t{1} << 30;
    best = std::max(best, std::stoul(text) * mult);
  }
  return best > 0 ? best : std::size_t{32} << 20;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

HostDescriptor describe_host() {
  HostDescriptor h;
  h.cpu_model = cpu_model();
  h.cores = std::thread::hardware_concurrency();
  h.compiler = __VERSION__;
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef _OPENMP
  h.omp_threads = omp_get_max_threads();
#endif
  h.l3_bytes = last_level_cache_bytes();
  return h;
}

std::string to_json(const HostDescriptor& h) {
  std::ostringstream o;
  o << "{\"cpu_model\":\"" << json_escape(h.cpu_model) << "\",\"cores\":"
    << h.cores << ",\"compiler\":\"" << json_escape(h.compiler)
    << "\",\"build_type\":\"" << json_escape(h.build_type)
    << "\",\"omp_threads\":" << h.omp_threads
    << ",\"l3_mib\":" << (h.l3_bytes >> 20) << "}";
  return o.str();
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(f >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(f >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double triad_gbs(std::size_t array_bytes, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Read back one element so the pass cannot be dropped.
    if (a[n / 2] != 7.0) return 0.0;
    best = std::max(best, 24.0 * static_cast<double>(n) / secs / 1e9);
  }
  return best;
}

}  // namespace perfbench
