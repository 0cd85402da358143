// Host facts recorded with every result: the descriptor (CPU, cores,
// compiler, build type, OpenMP threads), the peak resident set, and the
// measured STREAM-triad bandwidth roof that computed byte rates are read
// against.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct HostDescriptor {
  std::string cpu_model;
  unsigned cores = 0;
  std::string compiler;
  std::string build_type;
  int omp_threads = 1;
  std::size_t l3_bytes = 0;  // last-level cache as the OS reports it
};

HostDescriptor describe_host();

/// The descriptor as one JSON object.
std::string to_json(const HostDescriptor& h);

/// Cumulative CPU ticks of the whole machine from /proc/stat: all states,
/// and "steal" (time the hypervisor ran other guests on our CPUs). Zero
/// when unavailable.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks cpu_ticks();

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Single-threaded STREAM triad a[i] = b[i] + s*c[i] over three arrays of
/// `array_bytes` each; best of `reps` passes, GB/s counting 24 bytes per
/// element (the STREAM convention). Single-threaded because every solver
/// kernel the benchmark times runs on one thread.
double triad_gbs(std::size_t array_bytes, int reps);

}  // namespace perfbench
