#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<double> segment_percentiles(const std::vector<double>& values,
                                        std::size_t segments, double p) {
  std::vector<double> out;
  if (values.empty() || segments == 0) return out;
  segments = std::min(segments, values.size());
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t begin = values.size() * s / segments;
    const std::size_t end = values.size() * (s + 1) / segments;
    out.push_back(percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end)),
        p));
  }
  return out;
}

}  // namespace perfbench
