// Order statistics for the benchmark's reports. quantiles() reproduces
// Python's statistics.quantiles(data, n=n) (the default "exclusive" method)
// exactly, so the medians, p90s and quartile spreads this benchmark prints
// agree with what a Python consumer computes from the same samples.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace pipebench {

/// The n-1 cut points dividing `data` into n equal-probability groups
/// (Python statistics.quantiles, method="exclusive"). One sample yields n-1
/// copies of it; an empty sample or n < 1 throws.
inline std::vector<double> quantiles(std::vector<double> data, int n) {
  if (n < 1) throw std::invalid_argument("quantiles: n must be >= 1");
  if (data.empty()) throw std::invalid_argument("quantiles: no samples");
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  if (ld == 1) return std::vector<double>(static_cast<std::size_t>(n - 1), data[0]);
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((data[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                    data[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

/// Python statistics.median: the middle sample, or the mean of the two.
inline double median(std::vector<double> data) {
  if (data.empty()) throw std::invalid_argument("median: no samples");
  std::sort(data.begin(), data.end());
  const std::size_t h = data.size() / 2;
  return data.size() % 2 ? data[h] : (data[h - 1] + data[h]) / 2.0;
}

/// The k-th of 99 percentile cut points (1 <= k <= 99) by quantiles()'s rule.
inline double percentile(const std::vector<double>& data, int k) {
  if (k < 1 || k > 99) throw std::invalid_argument("percentile: k must be in 1..99");
  return quantiles(data, 100)[static_cast<std::size_t>(k - 1)];
}

}  // namespace pipebench
