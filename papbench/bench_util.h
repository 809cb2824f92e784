/**
 * @file
 * Small helpers shared by the benchmark-of-record workloads: the
 * command line, the metric catalogue every run reports against, robust
 * statistics, peak RSS, and the FNV-1a digest used to prove that the
 * simulated program is unchanged across host-only changes.
 */

#ifndef PAPBENCH_BENCH_UTIL_H
#define PAPBENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/report.h"
#include "obs/trace_sink.h"

namespace pap {
struct PapResult;
}

namespace papbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Parsed command line. */
struct Args
{
    std::string workload;
    /** Seeds the automata, the input traces and the serve arrivals. */
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** runPap / serve thread budget (0 = one per hardware thread). */
    std::uint32_t threads = 0;
    /** Where the traced run writes its spans (empty: do not write). */
    std::string spansOut;
    /** Directory for files the workload writes while it runs. */
    std::string workDir = ".";
};

/** Host threads a workload may use: --threads, else one per core. */
inline std::uint32_t
hostThreads(const Args &args)
{
    if (args.threads)
        return args.threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Values a run reports, by catalogue name. Workloads set only what
 * they measure; the printer fills the rest of the catalogue with 0.
 */
using MetricValues = std::map<std::string, double>;

/** The value of @p name in @p values, or 0 when it was not measured. */
inline double
lookup(const MetricValues &values, const std::string &name)
{
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

/** What one workload run returns to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced run). */
    MetricValues endToEnd;
    /** Per-layer metrics (traced run). */
    MetricValues perLayer;
};

/** Median of @p xs (0 for an empty sample). */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/**
 * Nearest-rank percentile of @p xs. Callers only report a percentile
 * that leaves at least ten samples above it (see samplesBeyond).
 */
inline double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(
                                                    xs.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(xs.size())));
    return xs[idx - 1];
}

/** Samples strictly above the nearest-rank @p pct percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/** Geometric mean of positive values (1 for an empty sample). */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double log_sum = 0.0;
    for (const double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Peak resident set of this process (VmHWM), in MiB. */
double peakRssMiB();

/** Incremental 64-bit FNV-1a hash. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001B3ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    /** Hash a double by its bit pattern: exact, not rounded. */
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void reports(const std::vector<pap::ReportEvent> &events)
    {
        u64(events.size());
        for (const auto &e : events) {
            u64(e.offset);
            u64(e.state);
            u64(e.code);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/**
 * Simulation-identity digest of one runPap result: the composed reports
 * and every modeled statistic, no host timing. Identical across thread
 * counts and host-only changes.
 */
std::uint64_t simDigest(const pap::PapResult &r);

/** Format @p v as 16 hex digits. */
std::string hex64(std::uint64_t v);

/**
 * A span on the installed tracer for one operation of the benchmark (a
 * runPap call or a serve call), tagged with the operation's id.
 */
class OpSpan
{
  public:
    OpSpan(const char *name, std::uint64_t op)
        : sink_(pap::obs::tracer()), op_(op)
    {
        if (sink_)
            sink_->begin(name, "papbench");
    }

    ~OpSpan()
    {
        if (sink_)
            sink_->end({{"op", static_cast<double>(op_)}});
    }

    OpSpan(const OpSpan &) = delete;
    OpSpan &operator=(const OpSpan &) = delete;

  private:
    pap::obs::TraceSink *const sink_;
    const std::uint64_t op_;
};

/** Span times of one operation, by span name, in ms. */
struct OpTimes
{
    /** Summed span durations. */
    MetricValues totalMs;
    /** Durations minus the spans nested in them on the same thread. */
    MetricValues selfMs;
};

/**
 * Split a trace into operations: each span named @p op_name opens one,
 * and every span that closes (on any thread) while it is open belongs
 * to it. Operations must not overlap.
 */
std::vector<OpTimes> timesByOp(const std::vector<pap::obs::TraceEvent> &events,
                               const std::string &op_name);

/** Write @p sink as a Chrome trace to @p path; false on I/O error. */
bool writeTrace(const pap::obs::TraceSink &sink, const std::string &path);

} // namespace papbench

#endif // PAPBENCH_BENCH_UTIL_H
