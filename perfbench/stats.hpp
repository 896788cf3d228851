#pragma once

// Small order-statistics and timing helpers shared by the benchmark files.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace rna::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// a / b, or 0 when b is 0 (a layer that did not run in this workload).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// Metrics by name, the order they are printed in.
using MetricMap = std::map<std::string, Metric>;

/// Adds `<prefix>_p50`, `<prefix>_p99` and the sample count `<prefix>_n`.
inline void AddLatency(MetricMap& out, const std::string& prefix,
                       const std::vector<double>& samples, const char* unit) {
  out[prefix + "_p50"] = {Quantile(samples, 0.50), unit};
  out[prefix + "_p99"] = {Quantile(samples, 0.99), unit};
  out[prefix + "_n"] = {static_cast<double>(samples.size()), "count"};
}

}  // namespace rna::perfbench
