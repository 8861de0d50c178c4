#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double mean(const std::vector<double>& samples) {
  return samples.empty()
             ? 0.0
             : sum(samples) / static_cast<double>(samples.size());
}

bool percentile_has_support(std::size_t n, double pct) {
  // Integer arithmetic in tenths of a percent avoids 100 * 0.1 < 10.
  const long tenths_beyond = std::lround((100.0 - pct) * 10.0);
  return static_cast<long>(n) * tenths_beyond >= 10L * 1000L;
}

double jain_index(const std::vector<double>& shares) {
  double s = 0.0, s2 = 0.0;
  for (double x : shares) {
    s += x;
    s2 += x * x;
  }
  if (shares.empty() || s2 <= 0.0) return 0.0;
  return s * s / (static_cast<double>(shares.size()) * s2);
}

}  // namespace perfbench
