/**
 * @file
 * Structured metrics for the PAP pipeline: a process-wide registry of
 * named counters, gauges, and HDR-style log-linear histograms
 * (p50/p95/p99), with JSON serialization. All operations are
 * thread-safe so `multistream` and future parallel runners can record
 * concurrently. Recording happens at run/segment/flow granularity —
 * never per symbol — so the always-on cost is negligible next to the
 * simulation itself.
 */

#ifndef PAP_OBS_METRICS_H
#define PAP_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"

namespace pap {
namespace obs {

/** Read-only view of a histogram's distribution. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double mean = 0.0;
    /** Percentiles, accurate to the log-linear bucket width (~1.6%). */
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * HDR-style histogram: sparse log-linear buckets (32 sub-buckets per
 * octave, so quantile estimates carry at most ~1.6% relative error)
 * plus exact min/max/sum. Not thread-safe by itself; the registry
 * serializes access.
 */
class Histogram
{
  public:
    /** Record one sample. Non-positive values land in a floor bucket. */
    void record(double value);

    /**
     * Quantile estimate for @p pct, clamped to [0, 100] like
     * stats::percentile; 0 for an empty histogram.
     */
    double percentile(double pct) const;

    /** Full distribution summary. */
    HistogramSnapshot snapshot() const;

    std::uint64_t count() const { return count_; }

  private:
    /** Bucket key for a value (log-linear; see metrics.cc). */
    static int bucketOf(double value);
    /** Representative (midpoint) value of a bucket. */
    static double bucketValue(int bucket);

    std::map<int, std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Named metrics, one instance per process (see metrics()). Counters
 * are monotonic uint64 sums; gauges are last-written doubles;
 * histograms aggregate sample distributions.
 */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Set gauge @p name. */
    void setGauge(const std::string &name, double value);

    /** Record one sample into histogram @p name. */
    void observe(const std::string &name, double value);

    /**
     * Record every sample of @p values into histogram @p name under one
     * lock: the batched observe() for per-flow samples.
     */
    void observeAll(const std::string &name,
                    const std::vector<double> &values);

    /** Read a counter; 0 if never touched. */
    std::uint64_t counter(const std::string &name) const;

    /** Read a gauge; 0.0 if never touched. */
    double gauge(const std::string &name) const;

    /** Snapshot a histogram; empty snapshot if never touched. */
    HistogramSnapshot histogram(const std::string &name) const;

    /** Drop everything (tests, or between CLI sub-runs). */
    void clear();

    /**
     * Serialize to JSON:
     * { "papsim_metrics_version": 1,
     *   "counters": {name: int, ...},
     *   "gauges": {name: double, ...},
     *   "histograms": {name: {count,min,max,sum,mean,p50,p95,p99}} }
     */
    std::string toJson() const;

    /** Write toJson() to @p path; PAP_FATAL on I/O failure. */
    void writeJsonFile(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
};

/** The process-wide registry every pipeline stage records into. */
MetricsRegistry &metrics();

} // namespace obs
} // namespace pap

#endif // PAP_OBS_METRICS_H
