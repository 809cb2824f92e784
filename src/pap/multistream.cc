#include "pap/multistream.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/exec/pipeline.h"
#include "pap/exec/worker_pool.h"
#include "pap/run_common.h"
#include "pap/segment_sim.h"

namespace pap {

MultiStreamResult
runMultiStream(const Nfa &nfa, const std::vector<InputTrace> &streams,
               const ApConfig &config, const PapOptions &options)
{
    PAP_TRACE_SCOPE("multistream.run");
    PAP_ASSERT(nfa.finalized(), "runMultiStream on unfinalized NFA");
    PAP_ASSERT(!streams.empty(), "no streams given");
    MultiStreamResult result;
    result.status = checkOptions(options);
    if (result.status.ok() && streams.size() > config.svcEntriesPerDevice) {
        result.status = Status::error(
            ErrorCode::CapacityExceeded, "cannot multiplex ",
            streams.size(), " streams: the State Vector Cache holds ",
            config.svcEntriesPerDevice, " flow contexts");
        obs::metrics().add("multistream.capacity_failures");
    }
    if (!result.status.ok())
        return result;

    const CompiledNfa cnfa(nfa);
    std::uint64_t total_symbols = 0;
    for (const auto &stream : streams)
        total_symbols += stream.size();

    result.streamDone.assign(streams.size(), 0);
    result.reports.resize(streams.size());

    // Functional execution: each stream is one golden run over its own
    // input, so the streams run fully in parallel on the hardened pool
    // (the round-robin interleaving below is pure timing arithmetic and
    // never touches an engine). Each task writes only its own
    // result.reports[i] slot.
    const auto run_stream =
        [&](std::size_t i, const exec::CancellationToken *cancel) {
            SequentialResult run =
                runSequential(cnfa, cnfa.initialActive(), streams[i].begin(),
                              0, streams[i].size(), cancel);
            if (cancel && cancel->cancelled())
                return false;
            result.reports[i] = std::move(run.reports);
            return true;
        };

    std::uint64_t longest = 0;
    for (const auto &stream : streams)
        longest = std::max(longest, stream.size());
    const exec::HardenedExecOptions exec_opt = makeHardenedOptions(
        options, exec::WorkerPool::resolveThreads(options.threads),
        longest);
    result.threadsUsed = exec_opt.threads;
    exec::SegmentPipeline::Options pipe_opt;
    pipe_opt.exec = exec_opt;
    exec::SegmentPipeline pipe(
        pipe_opt, streams.size(),
        [&](std::size_t i,
            const exec::CancellationToken &cancel) -> Status {
            if (!run_stream(i, &cancel))
                return Status::error(ErrorCode::DeadlineExceeded,
                                     "stream ", i,
                                     " missed its deadline");
            return Status();
        });

    // Timing model: round-robin TDM over the streams with the flow
    // switch cost, exactly as a single half-core would interleave
    // them. Depends only on stream lengths, so it is independent of
    // how the functional work above was scheduled.
    const std::uint64_t quantum = options.tdmQuantum;
    const Cycles switch_cost = config.timing.contextSwitchCycles;
    std::vector<std::uint64_t> consumed(streams.size(), 0);
    std::vector<std::uint8_t> done(streams.size(), 0);
    Cycles now = 0;
    std::size_t live = streams.size();
    while (live > 0) {
        const std::size_t live_this_round = live;
        for (std::size_t i = 0; i < streams.size(); ++i) {
            if (done[i])
                continue;
            const std::uint64_t chunk = std::min<std::uint64_t>(
                quantum, streams[i].size() - consumed[i]);
            consumed[i] += chunk;
            now += chunk;
            if (live_this_round > 1) {
                now += switch_cost;
                result.switchCycles += switch_cost;
            }
            if (consumed[i] == streams[i].size()) {
                done[i] = 1;
                result.streamDone[i] = now;
                --live;
            }
        }
    }
    result.totalCycles = now;
    result.overheadRatio =
        total_symbols ? static_cast<double>(now) /
                            static_cast<double>(total_symbols)
                      : 1.0;

    // Handoff: the timing arithmetic above never touches a report
    // slot, so the first wait on each stream is here. A stream whose
    // retries were exhausted is recomputed inline.
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const exec::TaskReport &tr = pipe.await(i);
        if (tr.status.ok())
            continue;
        warn("multiplexed stream ", i, " failed (", tr.status.message(),
             "); recomputing it inline");
        obs::metrics().add("exec.segments.recovered");
        run_stream(i, nullptr);
        if (options.faultInjector && tr.faultsInjected > 0)
            options.faultInjector->markRecovered(tr.faultsInjected);
    }

    auto &m = obs::metrics();
    m.add("multistream.runs");
    m.add("multistream.streams", streams.size());
    m.add("multistream.switch_cycles", result.switchCycles);
    m.setGauge("multistream.overhead_ratio", result.overheadRatio);
    for (const Cycles done : result.streamDone)
        m.observe("multistream.stream_done_cycles",
                  static_cast<double>(done));
    return result;
}

} // namespace pap
