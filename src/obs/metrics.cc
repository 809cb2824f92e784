#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace pap {
namespace obs {

// Log-linear bucketing: a value v > 0 with v = frac * 2^exp
// (frac in [0.5, 1), via frexp) maps to bucket
//   exp * kSubBuckets + floor((frac - 0.5) * 2 * kSubBuckets),
// i.e. kSubBuckets linear sub-buckets per octave. Non-positive values
// share one floor bucket below every positive one.
namespace {
constexpr int kSubBuckets = 32;
constexpr int kFloorBucket = std::numeric_limits<int>::min();
} // namespace

int
Histogram::bucketOf(double value)
{
    if (!(value > 0.0))
        return kFloorBucket;
    int exp = 0;
    const double frac = std::frexp(value, &exp);
    int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return exp * kSubBuckets + sub;
}

double
Histogram::bucketValue(int bucket)
{
    if (bucket == kFloorBucket)
        return 0.0;
    const int exp = (bucket >= 0)
                        ? bucket / kSubBuckets
                        : -((-bucket + kSubBuckets - 1) / kSubBuckets);
    const int sub = bucket - exp * kSubBuckets;
    const double frac =
        0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
    return std::ldexp(frac, exp);
}

void
Histogram::record(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
    ++buckets_[bucketOf(value)];
}

double
Histogram::percentile(double pct) const
{
    if (count_ == 0)
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    // Same rank convention as stats::percentile on the sorted sample.
    const double rank =
        pct / 100.0 * static_cast<double>(count_ - 1);
    const auto target = static_cast<std::uint64_t>(rank);
    std::uint64_t seen = 0;
    for (const auto &[bucket, n] : buckets_) {
        seen += n;
        if (seen > target) {
            // Clamp the bucket midpoint into the observed range so
            // single-bucket edges (p0/p100) stay exact.
            return std::clamp(bucketValue(bucket), min_, max_);
        }
    }
    return max_;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.count = count_;
    if (count_ == 0)
        return s;
    s.min = min_;
    s.max = max_;
    s.sum = sum_;
    s.mean = sum_ / static_cast<double>(count_);
    s.p50 = percentile(50);
    s.p95 = percentile(95);
    s.p99 = percentile(99);
    return s;
}

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[name].record(value);
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? HistogramSnapshot{}
                                   : it->second.snapshot();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

namespace {

/** JSON string escaping for metric names (quotes, backslashes, ctrl). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Finite doubles only; JSON has no inf/nan literals. */
void
appendNumber(std::ostringstream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    // Integral values print without a mantissa for readability.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
    } else {
        os.precision(12);
        os << v;
    }
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\n  \"papsim_metrics_version\": 1,\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        appendNumber(os, value);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        const HistogramSnapshot s = h.snapshot();
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << s.count << ", \"min\": ";
        appendNumber(os, s.min);
        os << ", \"max\": ";
        appendNumber(os, s.max);
        os << ", \"sum\": ";
        appendNumber(os, s.sum);
        os << ", \"mean\": ";
        appendNumber(os, s.mean);
        os << ", \"p50\": ";
        appendNumber(os, s.p50);
        os << ", \"p95\": ";
        appendNumber(os, s.p95);
        os << ", \"p99\": ";
        appendNumber(os, s.p99);
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

void
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        PAP_FATAL("cannot open metrics output '", path, "'");
    os << toJson();
    if (!os.good())
        PAP_FATAL("failed writing metrics to '", path, "'");
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace obs
} // namespace pap
