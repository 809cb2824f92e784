#include "bench_util.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "pap/runner.h"

namespace papbench {

double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Hash of everything the simulated program produced: the composed
 * reports and every modeled statistic. Host timings are excluded, so
 * the digest is identical across thread counts and host-only changes.
 */
std::uint64_t
simDigest(const pap::PapResult &r)
{
    Digest d;
    d.reports(r.reports);
    for (const std::uint64_t v :
         {std::uint64_t{r.numSegments}, std::uint64_t{r.idealSpeedup},
          std::uint64_t{r.halfCoresPerCopy},
          std::uint64_t{r.boundarySymbol},
          std::uint64_t{r.boundaryRangeSize}, r.papCycles,
          r.baselineCycles, std::uint64_t{r.goldenCapped},
          r.seqReportEvents, r.papReportEvents, r.flowTransitions,
          r.seqTransitions, r.contextSwitches, r.stateVectorUploads,
          r.flowSymbolCycles, std::uint64_t{r.maxFlowsPerSegment},
          std::uint64_t{r.svcOverflow}, std::uint64_t{r.svcBatches},
          std::uint64_t{r.svcCapacity}, r.svcEvictions, r.svcReuploads,
          r.svcLoadHits, r.svcLoadMisses, r.svcReuploadCycles})
        d.u64(v);
    for (const double v :
         {r.speedup, r.flowsInRange, r.flowsAfterCc, r.flowsAfterParent,
          r.avgActiveFlows, r.switchOverheadPct, r.avgTcpuCycles,
          r.reportInflation, r.transitionRatio, r.svcHitRate})
        d.f64(v);
    for (const auto &seg : r.segments)
        for (const std::uint64_t v :
             {seg.begin, seg.length, std::uint64_t{seg.flows},
              std::uint64_t{seg.deactivated}, std::uint64_t{seg.converged},
              std::uint64_t{seg.ranToEnd}, std::uint64_t{seg.truePaths},
              std::uint64_t{seg.totalPaths}, seg.tDone, seg.tResolve,
              seg.entries})
            d.u64(v);
    return d.value();
}

std::vector<OpTimes>
timesByOp(const std::vector<pap::obs::TraceEvent> &events,
          const std::string &op_name)
{
    struct Open
    {
        const pap::obs::TraceEvent *begin;
        double childUs = 0.0;
    };
    std::vector<OpTimes> ops;
    bool in_op = false;
    std::unordered_map<std::int64_t, std::vector<Open>> stacks;
    for (const pap::obs::TraceEvent &e : events) {
        if (e.ph == 'B') {
            if (e.name == op_name) {
                ops.emplace_back();
                in_op = true;
            }
            stacks[e.tid].push_back({&e});
            continue;
        }
        if (e.ph != 'E')
            continue;
        auto &stack = stacks[e.tid];
        if (stack.empty())
            continue;
        const Open span = stack.back();
        stack.pop_back();
        const double us = e.ts - span.begin->ts;
        if (!stack.empty())
            stack.back().childUs += us;
        if (in_op) {
            ops.back().totalMs[span.begin->name] += us * 1e-3;
            ops.back().selfMs[span.begin->name] += (us - span.childUs) * 1e-3;
        }
        if (span.begin->name == op_name)
            in_op = false;
    }
    return ops;
}

bool
writeTrace(const pap::obs::TraceSink &sink, const std::string &path)
{
    std::ofstream os(path);
    os << sink.toJson();
    return static_cast<bool>(os.flush());
}

} // namespace papbench
