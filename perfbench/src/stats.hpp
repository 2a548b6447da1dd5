// Order statistics for the benchmark's reports. Quantiles interpolate the
// way Python's statistics.quantiles(method="exclusive") does, so a median
// or quartile printed here matches what a reader recomputes from the raw
// values with the standard library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Value at fraction `q` in (0, 1) of sorted `v`: position q * (n + 1)
/// (1-based), interpolated between the two samples around it — or, past
/// either end, extrapolated from the two end samples, exactly as
/// statistics.quantiles(method="exclusive") does.
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  if (v.size() == 1) return v[0];
  const double h = q * (static_cast<double>(v.size()) + 1.0);
  const auto j = static_cast<std::size_t>(
      std::clamp(std::floor(h), 1.0, static_cast<double>(v.size() - 1)));
  return v[j - 1] + (h - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The percentile rule: a percentile is reported only when at least ten
/// samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

}  // namespace perfbench
