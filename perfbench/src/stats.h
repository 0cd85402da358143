// Order statistics of benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles q1, q3 by the same rule as Python's
/// statistics.quantiles(v, n=4) (the default "exclusive" method, including
/// its clamped extrapolation for very small samples). Needs >= 2 samples.
inline void quartiles(std::vector<double> v, double* q1, double* q3) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  auto at = [&](long i) {
    const long m = ld + 1;
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  *q1 = at(1);
  *q3 = at(3);
}

/// Interquartile distance as a share of the median (0 for < 2 samples).
inline double spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double q1 = 0.0, q3 = 0.0;
  quartiles(v, &q1, &q3);
  const double m = median(v);
  return m != 0.0 ? (q3 - q1) / std::abs(m) : 0.0;
}

/// Nearest-rank percentile p in (0, 100]; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace perfbench
