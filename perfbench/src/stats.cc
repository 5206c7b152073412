#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

size_t NearestRank(size_t n, double q) {
  // The epsilon keeps q * n that should be an integer (0.95 * 200) from
  // rounding up past it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.p50 = Percentile(values, 0.50);
  s.p95 = Percentile(values, 0.95);
  s.p95_supported = SamplesBeyond(s.n, 0.95) >= kMinSamplesBeyond;
  return s;
}

}  // namespace perfbench
