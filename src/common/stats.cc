#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pap {
namespace stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : xs) {
        PAP_ASSERT(x > 0.0, "geomean of non-positive value ", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
minOf(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    std::sort(xs.begin(), xs.end());
    const double rank = pct / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

} // namespace stats
} // namespace pap
