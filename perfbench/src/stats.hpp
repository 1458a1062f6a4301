#pragma once
/// \file stats.hpp
/// \brief Percentile math shared by the benchmark and its self-tests.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile \p p (0..100) of \p values by linear interpolation between
/// closest ranks (the "R-7" rule numpy uses by default). Returns 0 for an
/// empty input. Takes a copy because it sorts.
double percentile(std::vector<double> values, double p);

/// Median: percentile(values, 50).
double median(std::vector<double> values);

/// Splits \p values (in time order) into \p segments consecutive runs of
/// near-equal length and returns percentile \p p of each. A run's tail
/// figure is the median of these, so one disturbed stretch of a run (a
/// noisy neighbour, a descheduled vCPU) moves one segment, not the result.
std::vector<double> segment_percentiles(const std::vector<double>& values,
                                        std::size_t segments, double p);

}  // namespace perfbench
