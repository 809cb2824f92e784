#include "pap/speculative.h"

#include <algorithm>

#include "ap/placement.h"
#include "common/logging.h"
#include "engine/functional_engine.h"
#include "obs/metrics.h"
#include "pap/exec/pipeline.h"
#include "pap/exec/worker_pool.h"
#include "pap/partitioner.h"
#include "pap/runner.h"

namespace pap {

namespace {

/** Sorted set difference a \ b. */
std::vector<StateId>
setDifference(const std::vector<StateId> &a,
              const std::vector<StateId> &b)
{
    std::vector<StateId> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
    return out;
}

} // namespace

SpeculationResult
runSpeculative(const PreparedAutomaton &automaton, const InputTrace &input,
               const ApConfig &config,
               const SpeculationOptions &options)
{
    PAP_ASSERT(!input.empty(), "runSpeculative on empty input");
    const Nfa &nfa = automaton.nfa;
    const CompiledNfa &cnfa = automaton.cnfa;

    SpeculationResult result;
    result.name = nfa.name();

    const Placement placement = placeAutomaton(
        nfa, automaton.comps, config, options.routingMinHalfCores);

    std::uint32_t num_segments = placement.inputSegments(config);
    num_segments = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(
               num_segments,
               input.size() / (2ull * options.warmupWindow + 1))));
    result.numSegments = num_segments;
    result.idealSpeedup = num_segments;

    PapOptions base;
    base.reportCostCyclesPerEvent = options.reportCostCyclesPerEvent;
    const SequentialResult seq = runSequential(cnfa, input, base);
    result.baselineCycles = seq.cycles;

    if (num_segments == 1) {
        result.papCycles = seq.cycles;
        result.reports = seq.reports;
        result.verified = true;
        return result;
    }

    // Even slicing; speculation does not care about symbol ranges.
    std::vector<Segment> segs;
    std::uint64_t begin = 0;
    for (std::uint32_t j = 0; j < num_segments; ++j) {
        const std::uint64_t end =
            (j + 1 == num_segments)
                ? input.size()
                : (j + 1) * input.size() / num_segments;
        segs.push_back(Segment{begin, end});
        begin = end;
    }

    // Phase 1 (all segments concurrently): warm up on the last W
    // symbols before the segment, predict the start set, and run the
    // segment speculatively from the prediction. Segments are
    // independent, so they run on the hardened worker pool; each task
    // writes only its own spec[j] slot, keeping results identical for
    // every thread count.
    struct SegmentSpec
    {
        std::vector<StateId> predicted;
        std::vector<StateId> specFinal;
        std::vector<ReportEvent> specReports;
        std::uint64_t warmupSymbols = 0;
    };
    std::vector<SegmentSpec> spec(segs.size());

    const auto speculate = [&](std::size_t j,
                               const exec::CancellationToken *cancel) {
        spec[j] = SegmentSpec{}; // retries start from a clean slot
        const Segment &seg = segs[j];
        if (j > 0) {
            const std::uint64_t from = std::max(
                segs[j - 1].begin, seg.begin >= options.warmupWindow
                                       ? seg.begin - options.warmupWindow
                                       : 0);
            spec[j].warmupSymbols = seg.begin - from;
            spec[j].predicted =
                runSequential(cnfa, {}, input.ptr(from), from,
                              spec[j].warmupSymbols, base, cancel)
                    .finalActive;
        }
        // The first segment needs no speculation: it starts from the
        // initial set. Every later one starts from its prediction.
        SequentialResult run = runSequential(
            cnfa, j == 0 ? cnfa.initialActive() : spec[j].predicted,
            input.ptr(seg.begin), seg.begin, seg.length(), base, cancel);
        if (cancel && cancel->cancelled())
            return false;
        spec[j].specFinal = std::move(run.finalActive);
        spec[j].specReports = std::move(run.reports);
        return true;
    };

    exec::HardenedExecOptions exec_opt;
    exec_opt.threads = exec::WorkerPool::resolveThreads(options.threads);
    result.threadsUsed = exec_opt.threads;
    exec::SegmentPipeline::Options pipe_opt;
    pipe_opt.exec = exec_opt;
    exec::SegmentPipeline pipe(
        pipe_opt, segs.size(),
        [&](std::size_t j,
            const exec::CancellationToken &cancel) -> Status {
            if (!speculate(j, &cancel))
                return Status::error(ErrorCode::DeadlineExceeded,
                                     "speculative segment ", j,
                                     " cancelled by the watchdog");
            return Status();
        });
    // Awaiting a slot also handles retry exhaustion: the slot is
    // recomputed inline (sequential oracle continuation), so the
    // truth chain below always consumes a valid spec[j].
    const auto await_slot = [&](std::size_t j) {
        const exec::TaskReport &tr = pipe.await(j);
        if (tr.status.ok())
            return;
        warn("speculative segment ", j, " failed (",
             tr.status.message(), "); recomputing it inline");
        obs::metrics().add("exec.segments.recovered");
        speculate(j, nullptr);
    };

    // Phase 2 (truth chain): validate each prediction against the
    // true start set; on a miss, patch-run the missing activity.
    std::uint32_t correct = 1; // segment 0 is trivially correct
    std::vector<bool> mispredicted(segs.size(), false);
    await_slot(0);
    std::vector<StateId> true_start = spec[0].specFinal;
    result.reports = spec[0].specReports;

    for (std::size_t j = 1; j < segs.size(); ++j) {
        await_slot(j);
        // Prediction is always a subset of the truth (activity born
        // in the window is a subset of all live activity).
        PAP_ASSERT(std::includes(true_start.begin(), true_start.end(),
                                 spec[j].predicted.begin(),
                                 spec[j].predicted.end()),
                   "speculative prediction overshot the true set");
        const std::vector<StateId> missing =
            setDifference(true_start, spec[j].predicted);
        std::vector<StateId> final_set = spec[j].specFinal;
        std::vector<ReportEvent> seg_reports = spec[j].specReports;
        if (missing.empty()) {
            ++correct;
        } else {
            mispredicted[j] = true;
            FunctionalEngine patch(cnfa, /*starts=*/false);
            patch.reset(missing, segs[j].begin);
            patch.run(input.ptr(segs[j].begin), segs[j].length());
            const auto patch_final = patch.snapshot();
            std::vector<StateId> merged;
            std::set_union(final_set.begin(), final_set.end(),
                           patch_final.begin(), patch_final.end(),
                           std::back_inserter(merged));
            final_set = std::move(merged);
            const auto patch_reports = patch.takeReports();
            seg_reports.insert(seg_reports.end(),
                               patch_reports.begin(),
                               patch_reports.end());
        }
        result.reports.insert(result.reports.end(),
                              seg_reports.begin(), seg_reports.end());
        true_start = std::move(final_set);
    }
    sortAndDedupReports(result.reports);
    result.accuracy =
        static_cast<double>(correct) / static_cast<double>(segs.size());

    if (result.reports == seq.reports) {
        result.verified = true;
    } else {
        warn("speculative reports diverge from the sequential "
             "execution for '", nfa.name(),
             "'; recovering the golden result");
        obs::metrics().add("speculative.verification_divergence");
        result.reports = seq.reports;
        result.recovered = true;
    }

    // Phase 3: timeline. Warmup and the speculative pass run from
    // t = 0 on every half-core; validation chains through the truth
    // dependency exactly like the enumerative runner's decode chain;
    // a mispredicted segment reruns serially after the truth arrives.
    const Cycles upload = config.timing.stateVectorUploadCycles;
    const Cycles decode = base.decodeBaseCycles;
    Cycles prev_truth = 0;
    Cycles completion = 0;
    for (std::size_t j = 0; j < segs.size(); ++j) {
        const Cycles spec_done =
            spec[j].warmupSymbols + segs[j].length();
        Cycles done = spec_done;
        if (mispredicted[j]) {
            // Patch starts once the truth (and the missing-state
            // vector) reaches the AP.
            const Cycles patch_start =
                prev_truth + config.timing.fivDownloadCycles;
            done = std::max(done, patch_start + segs[j].length());
        }
        const Cycles truth =
            (j == 0) ? done + upload
                     : std::max(done + upload, prev_truth) + decode;
        const Cycles drain = static_cast<Cycles>(
            options.reportCostCyclesPerEvent *
            static_cast<double>(spec[j].specReports.size()));
        completion = std::max(completion, truth + drain);
        prev_truth = truth;
    }
    result.papCycles = completion;
    if (options.applyGoldenCap &&
        result.papCycles > result.baselineCycles) {
        result.papCycles = result.baselineCycles;
        result.goldenCapped = true;
    }
    result.speedup = static_cast<double>(result.baselineCycles) /
                     static_cast<double>(result.papCycles);
    return result;
}

SpeculationResult
runSpeculative(const Nfa &nfa, const InputTrace &input,
               const ApConfig &config,
               const SpeculationOptions &options)
{
    const PreparedAutomaton automaton(nfa);
    return runSpeculative(automaton, input, config, options);
}

} // namespace pap
