// Sample statistics of the benchmark: nearest-rank percentiles with the
// ten-samples-beyond rule.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]): the ceil(q * n)-th smallest
/// sample. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Samples ranked strictly above the nearest-rank q-percentile.
size_t SamplesBeyond(size_t n, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one slow sample decides the figure.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Smallest sample count whose q-percentile has kMinSamplesBeyond samples
/// beyond it (200 for p95).
size_t MinSamplesFor(double q);

/// A named latency sample with its percentile summary.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// SamplesBeyond(n, 0.95) >= kMinSamplesBeyond.
  bool p95_supported = false;
};
Summary Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
