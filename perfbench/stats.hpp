// Small statistics used by the benchmark's metrics: quantiles, the
// sample-count rule for tail percentiles, and Jain's fairness index.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0,1] by linear interpolation between order statistics
/// (the "inclusive" definition: q=0 is the minimum, q=1 the maximum).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);
double sum(const std::vector<double>& samples);

/// A tail percentile is reported only when at least ten samples lie beyond
/// it: `n * (1 - pct/100) >= 10`. p90 therefore needs 100 samples.
bool percentile_has_support(std::size_t n, double pct);

/// Jain's fairness index (Σx)² / (n·Σx²): 1 when every share is equal,
/// 1/n when one party gets everything. 0 for an empty or all-zero input.
double jain_index(const std::vector<double>& shares);

}  // namespace perfbench
