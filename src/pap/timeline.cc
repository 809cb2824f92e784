#include "pap/timeline.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {

TimelineResult
simulateTimeline(const std::vector<SegmentTimingInput> &segments,
                 Cycles baseline_cycles, const PapOptions &options,
                 const ApConfig &config)
{
    PAP_ASSERT(!segments.empty(), "timeline needs at least one segment");
    PAP_TRACE_SCOPE("timeline.simulate");
    const std::uint64_t quantum = options.tdmQuantum;
    const auto kNever = static_cast<Cycles>(-1);
    const ApTiming &timing = config.timing;
    const Cycles ctx = timing.contextSwitchCycles;
    const Cycles upload = timing.stateVectorUploadCycles;
    const std::uint32_t svc_capacity = config.svcEntriesPerDevice;

    TimelineResult result;

    std::uint64_t rounds_total = 0;
    std::uint64_t alive_weighted = 0;
    // When the previous segment's true final active set became known
    // at the host (gates truth resolution and the FIV of this segment).
    Cycles prev_truth_avail = 0;

    for (std::size_t j = 0; j < segments.size(); ++j) {
        const auto &seg = segments[j];
        const Cycles fiv_arrive =
            (j == 0 || !options.enableFiv || !seg.hasEnumFlows)
                ? kNever
                : prev_truth_avail + timing.fivDownloadCycles;

        // A segment whose flows fit the SVC can never evict, so only
        // an overflowing one replays its schedule through a live
        // cache: each TDM round touches every live flow's context, the
        // cache picks victims, and a context coming back after an
        // eviction stalls the half-core for the state-vector upload.
        // First-ever admissions are compulsory and free.
        std::optional<StateVectorCache> cache;
        std::vector<std::uint8_t> seen;
        if (seg.hasEnumFlows && seg.flows.size() > svc_capacity) {
            cache.emplace(svc_capacity);
            seen.assign(seg.flows.size(), 0);
        }

        // Effective stop point per flow: its own death, possibly
        // shortened by the FIV for false flows. The flows still
        // running, in flow-id order, are compacted at every round
        // boundary, so a round costs its live flows, not the plan.
        std::vector<std::uint64_t> stop(seg.flows.size());
        std::vector<FlowId> live(seg.flows.size());
        for (std::size_t f = 0; f < seg.flows.size(); ++f) {
            stop[f] = seg.flows[f].symbolsProcessed;
            live[f] = static_cast<FlowId>(f);
        }

        Cycles t = 0;
        std::uint64_t processed = 0;
        bool fiv_applied = false;
        while (processed < seg.segLen) {
            if (!fiv_applied && fiv_arrive != kNever && t >= fiv_arrive) {
                // Kill false enumeration flows at this round boundary.
                for (const FlowId f : live)
                    if (seg.flows[f].kind == FlowKind::Enum &&
                        !seg.flows[f].isTrue)
                        stop[f] = std::min(stop[f], processed);
                fiv_applied = true;
            }
            // Flow deaths since the last round (deactivation,
            // convergence merges, FIV kills) release their contexts
            // before this round admits anything: merging is what
            // relieves admission pressure.
            std::size_t kept = 0;
            for (const FlowId f : live) {
                if (stop[f] > processed)
                    live[kept++] = f;
                else if (cache)
                    cache->invalidate(f);
            }
            live.resize(kept);
            if (live.empty()) {
                // Only dead flows remain (can happen after an FIV
                // kill in a segment whose true flows all
                // deactivated); the half-core idles through the rest
                // of the input.
                processed = seg.segLen;
                ++rounds_total;
                break;
            }
            const std::uint64_t round_end =
                std::min(processed + quantum, seg.segLen);
            Cycles symbol_cycles = 0;
            Cycles restore_cycles = 0;
            for (const FlowId f : live) {
                symbol_cycles += std::min(stop[f], round_end) - processed;
                if (!cache)
                    continue;
                // Touch the flow's context for this round. The
                // modeled restore cost is the upload charge plus the
                // flow's remaining lifetime: a flow about to
                // deactivate or converge is the cheapest victim — its
                // context will never need restoring.
                const std::uint64_t cost = upload + (stop[f] - processed);
                if (cache->load(f, cost))
                    continue;
                const auto adm = cache->admit(
                    f, cost, seg.flows[f].kind != FlowKind::Enum);
                // With every resident pinned the flow runs without
                // residency and re-uploads on each later round.
                if (adm.ok() ? adm.value().reupload : seen[f] != 0)
                    restore_cycles += upload;
                seen[f] = 1;
            }
            const auto n_live = static_cast<Cycles>(live.size());
            const Cycles switch_cost = (n_live > 1) ? n_live * ctx : 0;
            t += restore_cycles + symbol_cycles + switch_cost;
            result.svcReuploadCycles += restore_cycles;
            result.switchCycles += switch_cost;
            result.busyCycles += symbol_cycles + switch_cost;
            alive_weighted += n_live;
            ++rounds_total;
            processed = round_end;
        }
        if (cache)
            result.svc += cache->counters();
        result.tDone.push_back(t);

        // Host resolution. The final state vector of a segment
        // uploads as soon as the segment finishes (uploads of
        // different segments proceed in parallel on their own
        // devices); only the cheap host *decode* chains serially
        // through the truth dependency. Segments without enumeration
        // flows have final reports at t_done and pay the upload only
        // when the next segment needs their final active set as T.
        const bool next_needs_t = (j + 1 < segments.size()) &&
                                  segments[j + 1].hasEnumFlows;
        Cycles tcpu = 0;
        Cycles truth_avail = t;
        if (seg.hasEnumFlows) {
            const Cycles decode =
                kDecodeBaseCycles +
                kDecodePerFlowCycles * seg.aliveEnumFlowsAtEnd;
            const Cycles uploaded = t + timing.stateVectorUploadCycles;
            truth_avail = std::max(uploaded, prev_truth_avail) + decode;
            tcpu = timing.stateVectorUploadCycles + decode;
        } else if (next_needs_t) {
            truth_avail = t + timing.stateVectorUploadCycles;
            tcpu = timing.stateVectorUploadCycles;
        }
        const Cycles drain = static_cast<Cycles>(
            kReportCostCyclesPerEvent *
            static_cast<double>(seg.totalEntries));
        prev_truth_avail = truth_avail;
        result.tcpuCycles.push_back(tcpu);
        result.tResolve.push_back(truth_avail + drain);
    }

    result.papCycles = 0;
    for (const Cycles t : result.tResolve)
        result.papCycles = std::max(result.papCycles, t);
    if (result.papCycles > baseline_cycles) {
        result.papCycles = baseline_cycles;
        result.goldenCapped = true;
    }
    result.speedup = static_cast<double>(baseline_cycles) /
                     static_cast<double>(result.papCycles);
    result.avgActiveFlows =
        rounds_total
            ? static_cast<double>(alive_weighted) /
                  static_cast<double>(rounds_total)
            : 0.0;

    auto &m = obs::metrics();
    m.add("timeline.rounds", rounds_total);
    m.add("timeline.switch_cycles", result.switchCycles);
    m.add("timeline.busy_cycles", result.busyCycles);
    return result;
}

} // namespace pap
