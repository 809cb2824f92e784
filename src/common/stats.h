/**
 * @file
 * Small numeric helpers: means, geomean, extremes and percentiles.
 */

#ifndef PAP_COMMON_STATS_H
#define PAP_COMMON_STATS_H

#include <vector>

namespace pap {
namespace stats {

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &xs);

/** Geometric mean; 0 for an empty sample. Values must be positive. */
double geomean(const std::vector<double> &xs);

/** Minimum; 0 for an empty sample. */
double minOf(const std::vector<double> &xs);

/** Maximum; 0 for an empty sample. */
double maxOf(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile; 0 for an empty sample. @p pct is
 * clamped to [0, 100], so out-of-range requests return the min/max
 * instead of indexing off the sample.
 */
double percentile(std::vector<double> xs, double pct);

} // namespace stats
} // namespace pap

#endif // PAP_COMMON_STATS_H
