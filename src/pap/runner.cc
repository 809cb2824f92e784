#include "pap/runner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "ap/placement.h"
#include "common/file_lock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/composer.h"
#include "pap/exec/checkpoint.h"
#include "pap/exec/pipeline.h"
#include "pap/exec/worker_pool.h"
#include "pap/fault_injector.h"
#include "pap/flow_plan.h"
#include "pap/partitioner.h"
#include "pap/run_common.h"
#include "pap/segment_sim.h"
#include "pap/timeline.h"

namespace pap {

SequentialResult
runSequential(const Nfa &nfa, const InputTrace &input,
              const PapOptions & /*options*/)
{
    const CompiledNfa cnfa(nfa);
    return runSequential(cnfa, input);
}

SequentialResult
runSequential(const CompiledNfa &cnfa, const InputTrace &input)
{
    PAP_TRACE_SCOPE("pap.sequential");
    return runSequential(cnfa, cnfa.initialActive(), input.begin(), 0,
                         input.size());
}

namespace {

/**
 * Record the run's headline metrics and per-segment distributions into
 * the process registry (the same numbers PapResult carries, so tests
 * and dumped JSON can cross-check them).
 */
void
recordRunMetrics(const PapResult &result)
{
    auto &m = obs::metrics();
    m.add("runner.runs");
    m.add("runner.segments", result.numSegments);
    m.add("runner.report_events.sequential", result.seqReportEvents);
    m.add("runner.report_events.pap", result.papReportEvents);
    m.add("runner.context_switches", result.contextSwitches);
    m.add("runner.state_vector_uploads", result.stateVectorUploads);
    m.add("runner.flow_transitions", result.flowTransitions);
    if (result.svcOverflow)
        m.add("runner.svc_overflows");
    // Live-cache census (all zero when every segment fit the SVC).
    m.add("svc.evictions", result.svcEvictions);
    m.add("svc.reuploads", result.svcReuploads);
    m.add("svc.load_hits", result.svcLoadHits);
    m.add("svc.load_misses", result.svcLoadMisses);
    m.add("svc.loads", result.svcLoadHits + result.svcLoadMisses);
    if (result.svcLoadHits + result.svcLoadMisses > 0)
        m.setGauge("svc.hit_rate", result.svcHitRate);
    if (result.goldenCapped)
        m.add("runner.golden_caps");
    if (result.degraded)
        m.add("runner.degraded_runs");
    if (result.recovered)
        m.add("runner.recoveries");
    if (!result.status.ok())
        m.add("runner.failed_runs");
    m.add("exec.segments.retried", result.segmentsRetried);
    m.setGauge("exec.threads_used",
               static_cast<double>(result.threadsUsed));
    m.setGauge("runner.speedup", result.speedup);
    m.setGauge("runner.pap_cycles",
               static_cast<double>(result.papCycles));
    m.setGauge("runner.baseline_cycles",
               static_cast<double>(result.baselineCycles));
    m.setGauge("runner.report_inflation", result.reportInflation);
    m.setGauge("runner.avg_active_flows", result.avgActiveFlows);
    m.setGauge("runner.switch_overhead_pct", result.switchOverheadPct);
    m.setGauge("runner.transition_ratio", result.transitionRatio);
    m.observe("runner.run.speedup", result.speedup);
    // Attribution ledger: one gauge per bucket so --metrics-json
    // carries the same decomposition --attrib prints.
    if (result.attrib.wallMs > 0.0) {
        m.setGauge("attrib.wall_ms", result.attrib.wallMs);
        for (const auto &b : result.attrib.buckets)
            m.setGauge("attrib." + b.name + "_ms", b.ms);
    }
    // Engine introspection totals (datapath cost across all flows).
    m.add("engine.counters.succ_rows", result.engineSuccRows);
    m.add("engine.counters.bytes_touched", result.engineBytesTouched);
    m.add("engine.counters.shift_steps", result.engineShiftSteps);
    if (result.engineBytesPerSymbol > 0.0)
        m.setGauge("engine.counters.bytes_per_symbol",
                   result.engineBytesPerSymbol);
    for (std::size_t k = 0; k < result.engineDensityOctiles.size(); ++k)
        m.add("engine.counters.density_octile_" + std::to_string(k),
              result.engineDensityOctiles[k]);
    for (const auto &diag : result.segments) {
        m.add("runner.flows.planned", diag.flows);
        m.add("runner.flows.deactivated", diag.deactivated);
        m.add("runner.flows.converged", diag.converged);
        m.add("runner.flows.ran_to_end", diag.ranToEnd);
        m.observe("runner.segment.length",
                  static_cast<double>(diag.length));
        m.observe("runner.segment.flows",
                  static_cast<double>(diag.flows));
        m.observe("runner.segment.tdone_cycles",
                  static_cast<double>(diag.tDone));
        m.observe("runner.segment.tresolve_cycles",
                  static_cast<double>(diag.tResolve));
        m.observe("runner.segment.entries",
                  static_cast<double>(diag.entries));
    }
}

/**
 * Emit the simulated AP timeline as explicit-timestamp spans on a
 * dedicated trace process: one track per segment, an "execute" span
 * until t_done and a "resolve" span until t_resolve, in microseconds
 * at the 7.5 ns AP cycle.
 */
void
traceSimulatedTimeline(const PapResult &result)
{
    obs::TraceSink *sink = obs::tracer();
    if (!sink || result.segments.empty())
        return;
    constexpr double kUsPerCycle = 7.5e-3;
    sink->labelProcess(obs::kSimPid,
                       "AP simulated timeline (7.5ns cycles)");
    for (std::size_t j = 0; j < result.segments.size(); ++j) {
        const auto &d = result.segments[j];
        sink->labelThread(obs::kSimPid, static_cast<std::int64_t>(j),
                          "segment " + std::to_string(j));
        sink->complete("execute", "ap.sim", 0.0,
                       static_cast<double>(d.tDone) * kUsPerCycle,
                       obs::kSimPid, static_cast<std::int64_t>(j),
                       {{"flows", static_cast<double>(d.flows)},
                        {"length", static_cast<double>(d.length)},
                        {"deactivated",
                         static_cast<double>(d.deactivated)},
                        {"converged", static_cast<double>(d.converged)},
                        {"ran_to_end",
                         static_cast<double>(d.ranToEnd)}});
        sink->complete("resolve", "ap.sim",
                       static_cast<double>(d.tDone) * kUsPerCycle,
                       static_cast<double>(d.tResolve - d.tDone) *
                           kUsPerCycle,
                       obs::kSimPid, static_cast<std::int64_t>(j),
                       {{"entries", static_cast<double>(d.entries)},
                        {"true_paths",
                         static_cast<double>(d.truePaths)},
                        {"total_paths",
                         static_cast<double>(d.totalPaths)}});
    }
}

/**
 * Identity binding a checkpoint to one (automaton, input, partitioning)
 * tuple: the automaton's structural digest, then the whole input a
 * word at a time, the segment count and the boundary symbol. Thread
 * count and retry knobs are deliberately excluded: a resume with a
 * different --threads must still match.
 */
std::uint64_t
checkpointIdentity(const Nfa &nfa, const InputTrace &input,
                   std::size_t num_segments, Symbol boundary)
{
    std::uint64_t h = hashCombine(automatonDigest(nfa), input.size());
    std::size_t i = 0;
    for (; i + 8 <= input.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, input.ptr(i), sizeof(word));
        h = hashCombine(h, word);
    }
    std::uint64_t tail = 0;
    for (; i < input.size(); ++i)
        tail = (tail << 8) | input[i];
    h = hashCombine(h, tail);
    h = hashCombine(h, num_segments);
    return hashCombine(h, boundary);
}

/** True iff sorted sets @p a and @p b agree outside @p cnfa's AllInput
    starts. */
bool
sameOutsideAllInput(const CompiledNfa &cnfa, const std::vector<StateId> &a,
                    const std::vector<StateId> &b)
{
    const auto keep = [&](StateId q) { return !cnfa.isAllInputStart(q); };
    auto i = a.begin(), j = b.begin();
    while (true) {
        i = std::find_if(i, a.end(), keep);
        j = std::find_if(j, b.end(), keep);
        if (i == a.end() || j == b.end())
            return i == a.end() && j == b.end();
        if (*i++ != *j++)
            return false;
    }
}

/**
 * One golden check: the sequential run over a slice of the input,
 * start machinery live, from the composed true set entering it. The
 * slice is a segment, or a resumed run's restored prefix.
 */
struct GoldenCheck
{
    Segment slice;
    /** The composed true set entering the slice (initial at 0). */
    std::vector<StateId> seed;
    /** Empty until the run returns (and for good, if it threw). */
    std::optional<SequentialResult> run;
};

/**
 * One runPap call, split into its stages. Each stage returns false
 * once the run is settled (failed, stopped, or answered by the
 * sequential execution) and the later stages are skipped; finish() is
 * the single exit every call takes.
 */
class PapRun
{
  public:
    /** A run of @p nfa on @p prepared, or, when that is null, on the
        preparation analyze() builds. */
    PapRun(const Nfa &nfa, const PreparedAutomaton *prepared,
           const InputTrace &input, const ApConfig &config,
           const PapOptions &options);
    PapRun(const PapRun &) = delete; // the golden checks hold `this`
    PapRun &operator=(const PapRun &) = delete;

    bool analyze();
    bool partitionAndPlan();
    bool checkOverflow();
    bool resume();
    bool executeAndCompose();
    bool verify();
    void timeline();
    PapResult finish();

  private:
    void startCheck(exec::SegmentPipeline &pipe, std::size_t k,
                    const Segment &slice);
    void runCheck(std::size_t k);
    bool checksAgree() const;
    void settleSequential(bool verifying);
    bool adoptSequential(bool degraded);
    Status executeTask(std::size_t j, const exec::CancellationToken &cancel);
    bool composeSegment(std::size_t j, const exec::TaskReport &tr);

    const Nfa &nfa;
    const InputTrace &input;
    const ApConfig &config;
    const PapOptions &options;
    FaultInjector *const injector;
    /**
     * One sink pointer for the whole run so phase spans stay balanced
     * even if a tracer is installed or removed mid-run.
     */
    obs::TraceSink *const sink;
    const std::chrono::steady_clock::time_point t0;
    obs::AttribLedger ledger;
    PapResult result;
    /** The sequential execution, once settleSequential() has run. */
    SequentialResult seq;
    bool seqSettled = false;
    /** Set once executeAndCompose() starts the pipeline. */
    bool pipelineRan = false;

    /** The preparation the run uses: the caller's, or `owned`. */
    const PreparedAutomaton *automaton;
    std::optional<PreparedAutomaton> owned;
    std::vector<Segment> segs;
    /** Per segment; null for the golden segment 0. */
    std::vector<const FlowPlan *> plans;
    /**
     * The composition frontier: the true final active set, the true
     * reports, the entry, transition and retry totals so far, and one
     * record per composed segment. Loaded on resume, advanced by
     * foldSegment, saved per checkpoint.
     */
    exec::CheckpointFrontier frontier;
    std::uint32_t first = 0;
    std::uint64_t resumedFlowSymbols = 0;
    /** Per segment, from its execution until it is composed. */
    std::vector<SegmentRun> runs;
    /** Exclusive hold on the checkpoint for the whole run. */
    std::optional<FileLock> checkpointLock;

    /**
     * The golden checks in input order: on a resumed run, one over the
     * restored prefix, then one per segment still to run. Each check
     * writes only its own slot.
     */
    std::vector<GoldenCheck> checks;
};

PapRun::PapRun(const Nfa &nfa, const PreparedAutomaton *prepared,
               const InputTrace &input, const ApConfig &config,
               const PapOptions &options)
    : nfa(nfa), input(input), config(config), options(options),
      injector(options.faultInjector), sink(obs::tracer()),
      t0(std::chrono::steady_clock::now()), automaton(prepared)
{
}

/**
 * Post golden check @p k over @p slice to @p pipe's workers, behind
 * the segments queued before it. The composer calls it once the
 * composed true set entering the slice is known: the initial set at
 * input offset 0, else the frontier's final set, so a segment's check
 * starts once its predecessor is folded.
 */
void
PapRun::startCheck(exec::SegmentPipeline &pipe, std::size_t k,
                   const Segment &slice)
{
    checks[k].slice = slice;
    checks[k].seed = slice.begin == 0 ? automaton->cnfa.initialActive()
                                      : frontier.finalActive;
    pipe.post([this, k] { runCheck(k); });
}

/**
 * Run golden check @p k: its own time is the aux bucket "baseline".
 * It catches what it throws, which must never end a pool thread, and
 * is then missing.
 */
void
PapRun::runCheck(std::size_t k)
{
    GoldenCheck &check = checks[k];
    try {
        obs::Phase phase(sink, "pap.baseline", &ledger, "baseline",
                         /*aux=*/true);
        PAP_TRACE_SCOPE("pap.sequential");
        check.run = runSequential(automaton->cnfa, check.seed,
                                  input.ptr(check.slice.begin),
                                  check.slice.begin, check.slice.length());
    } catch (...) {
        // Left missing: verify() runs the whole input instead.
    }
}

/**
 * True when the checks stand in for the whole-input sequential run:
 * every segment was composed, so the checks tile the input, and every
 * check ran and ended on the composed set leaving its slice (the next
 * check's seed; the frontier's final set after the last). By induction
 * from the first check, which starts from the initial set at offset 0,
 * each check then started from the true set entering its slice. On a
 * resumed run the prefix check thereby also vouches for the restored
 * frontier set. AllInput starts are set aside on both sides: an
 * enumeration flow, which has no start machinery, keeps one it
 * reaches over an edge, and a start-enabled run never holds one.
 */
bool
PapRun::checksAgree() const
{
    if (checks.empty() || frontier.nextSegment != segs.size())
        return false;
    for (std::size_t j = 0; j < checks.size(); ++j) {
        const std::vector<StateId> &leaving =
            j + 1 < checks.size() ? checks[j + 1].seed
                                  : frontier.finalActive;
        if (!checks[j].run ||
            !sameOutsideAllInput(automaton->cnfa,
                                 checks[j].run->finalActive, leaving))
            return false;
    }
    return true;
}

/**
 * Settle the sequential execution (once): concatenate the golden
 * checks when they agree, else run the whole input sequentially here
 * (counted in runner.verify.whole_input_runs when @p verifying).
 */
void
PapRun::settleSequential(bool verifying)
{
    if (seqSettled)
        return;
    seqSettled = true;
    if (checksAgree()) {
        // The segments' sorted reports concatenate in input order; of
        // the counters, the run reads the matches alone.
        for (const GoldenCheck &check : checks) {
            seq.reports.insert(seq.reports.end(), check.run->reports.begin(),
                               check.run->reports.end());
            seq.counters.matches += check.run->counters.matches;
            seq.entries += check.run->entries;
        }
        seq.cycles = baselineCycles(input.size(), seq.entries);
    } else {
        if (verifying)
            obs::metrics().add("runner.verify.whole_input_runs");
        obs::Phase wait(sink, "pap.baseline.wait", &ledger,
                        "baseline.wait");
        obs::Phase run(sink, "pap.baseline", &ledger, "baseline",
                       /*aux=*/true);
        seq = runSequential(automaton->cnfa, input);
    }
    result.baselineCycles = seq.cycles;
    result.seqReportEvents = seq.reports.size();
}

/** Answer the run with the golden sequential execution. */
bool
PapRun::adoptSequential(bool degraded)
{
    obs::metrics().add("runner.sequential_fallbacks");
    settleSequential(/*verifying=*/false);
    result.papCycles = seq.cycles;
    result.speedup = 1.0;
    result.reports = seq.reports;
    result.papReportEvents = seq.reports.size();
    result.verified = true;
    result.degraded = degraded;
    return false;
}

/** Prepare the automaton unless the caller did, refuse options the
    later stages cannot run with, then place it. */
bool
PapRun::analyze()
{
    obs::Phase phase(sink, "pap.analyze", &ledger, "analyze");
    if (!automaton)
        automaton = &owned.emplace(nfa);
    result.status = checkOptions(options);
    if (!result.status.ok())
        return false;
    const Result<Placement> placement = placeAutomaton(
        nfa, automaton->comps, config, options.routingMinHalfCores);
    if (!placement.ok()) {
        result.status = placement.status();
        return false;
    }

    // Segments: limited by half-cores, and by the rule that a segment
    // should span at least a couple of TDM quanta to be worth a flow.
    std::uint32_t num_segments = placement.value().inputSegments(config);
    const std::uint64_t min_seg = 2ull * options.tdmQuantum;
    num_segments = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(num_segments,
                                   input.size() / min_seg)));
    result.name = nfa.name();
    result.numSegments = num_segments;
    result.idealSpeedup = num_segments;
    result.halfCoresPerCopy = placement.value().halfCoresPerCopy;
    phase.close();
    return num_segments > 1 || adoptSequential(/*degraded=*/false);
}

/**
 * Cut the input after its smallest-range symbol, then look up every
 * segment's flow plan before any segment executes, so the overflow
 * check can inspect the whole run's SVC pressure before cycles are
 * spent. Segments cut after the same symbol share one plan.
 */
bool
PapRun::partitionAndPlan()
{
    obs::Phase partition(sink, "pap.partition", &ledger, "partition");
    const PartitionProfile profile = choosePartitionSymbol(
        automaton->ranges, input, result.numSegments);
    result.boundarySymbol = profile.symbol;
    result.boundaryRangeSize = profile.rangeSize;
    segs = partitionInput(input, profile.symbol, result.numSegments);
    result.numSegments = static_cast<std::uint32_t>(segs.size());
    result.idealSpeedup = result.numSegments;
    partition.close({{"segments", static_cast<double>(segs.size())},
                     {"boundary_symbol",
                      static_cast<double>(profile.symbol)},
                     {"range_size",
                      static_cast<double>(profile.rangeSize)}});

    obs::Phase plan(sink, "pap.plan", &ledger, "plan");
    plans.assign(segs.size(), nullptr);
    double sum_in_range = 0, sum_after_cc = 0, sum_after_parent = 0;
    for (std::size_t j = 1; j < segs.size(); ++j) {
        const Symbol boundary = input[segs[j].begin - 1];
        plans[j] = &automaton->plan(boundary, options);
        sum_in_range += plans[j]->flowsInRange;
        sum_after_cc += plans[j]->flowsAfterCc;
        sum_after_parent += plans[j]->flowsAfterParent;
        result.maxFlowsPerSegment = std::max(
            result.maxFlowsPerSegment,
            static_cast<std::uint32_t>(plans[j]->flows.size()));
    }
    const double enum_segments = static_cast<double>(segs.size() - 1);
    result.flowsInRange = sum_in_range / enum_segments;
    result.flowsAfterCc = sum_after_cc / enum_segments;
    result.flowsAfterParent = sum_after_parent / enum_segments;
    plan.close({{"segments", static_cast<double>(segs.size())},
                {"max_flows_per_segment",
                 static_cast<double>(result.maxFlowsPerSegment)}});
    return true;
}

/**
 * The overflow policy. The ASG flow occupies one SVC entry alongside
 * the enumeration flows, so a segment fits iff flows + asg <= the
 * device's SVC capacity.
 */
bool
PapRun::checkOverflow()
{
    const std::uint32_t capacity = config.svcEntriesPerDevice;
    const std::uint32_t asg_slots = automaton->asg.empty() ? 0u : 1u;
    result.svcOverflow =
        std::uint64_t{result.maxFlowsPerSegment} + asg_slots > capacity;
    result.svcCapacity = capacity;

    std::string why;
    if (result.maxFlowsPerSegment > options.maxFlowsPerSegment) {
        // Cycling a plan this degenerate through the SVC would be
        // slower than the baseline, so Evict degrades to the
        // sequential result too.
        why = detail::concat(
            "needs ", result.maxFlowsPerSegment,
            " enumeration flows per segment, above the configured "
            "limit of ", options.maxFlowsPerSegment);
    } else if (result.svcOverflow &&
               options.overflowPolicy != OverflowPolicy::Evict) {
        why = detail::concat(
            "needs up to ", result.maxFlowsPerSegment, " + ", asg_slots,
            " flow contexts per segment, above the ",
            capacity, "-entry State Vector Cache");
    } else {
        return true;
    }
    if (options.overflowPolicy == OverflowPolicy::Fail) {
        result.status = Status::error(ErrorCode::CapacityExceeded, "'",
                                      nfa.name(), "' ", why);
        return false;
    }
    warn("'", nfa.name(), "' falls back to the golden sequential "
         "execution: ", why);
    return adoptSequential(/*degraded=*/true);
}

/**
 * Checkpoint resume. A checkpoint binds to one (automaton, input,
 * partitioning) identity; thread count and retry knobs are excluded
 * so a killed run can resume with a different --threads and still
 * match.
 */
bool
PapRun::resume()
{
    if (!options.checkpointPath.empty()) {
        obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
        // A second run on the same path would write the same temp file
        // and resume from this run's frontier: own it or fail.
        auto lock = FileLock::acquire(options.checkpointPath + ".lock");
        if (lock.ok()) {
            checkpointLock.emplace(std::move(lock.value()));
        } else if (lock.status().code() == ErrorCode::LockHeld) {
            result.status = lock.status();
            return false;
        } else {
            warn(lock.status().message(),
                 "; checkpointing without a lock");
        }
        frontier.identity = checkpointIdentity(nfa, input, segs.size(),
                                               result.boundarySymbol);
        auto loaded = exec::loadCheckpoint(options.checkpointPath);
        if (loaded.ok()) {
            const exec::CheckpointFrontier &f = loaded.value();
            if (f.identity == frontier.identity &&
                f.nextSegment <= segs.size() &&
                f.segments.size() == f.nextSegment) {
                frontier = std::move(loaded.value());
            } else {
                warn("checkpoint '", options.checkpointPath,
                     "' belongs to a different run; starting fresh");
            }
        } else if (loaded.status().code() ==
                   ErrorCode::CheckpointCorrupt) {
            // A bad checkpoint degrades to a fresh run, never blocks.
            warn(loaded.status().message(), "; starting fresh");
        }
    }
    first = frontier.nextSegment;
    result.resumedFromCheckpoint = first > 0;
    result.resumedSegments = first;
    if (result.resumedFromCheckpoint) {
        obs::metrics().add("exec.checkpoint.resumes");
        if (injector)
            injector->restoreRngState(frontier.rngState);
    }
    resumedFlowSymbols = frontier.flowSymbolCycles;
    return true;
}

/** One segment's task on the pipeline: writes only its own slots. */
Status
PapRun::executeTask(std::size_t j, const exec::CancellationToken &cancel)
{
    // Worker-side time overlaps the composer's wall clock, so it is
    // charged to an aux bucket.
    obs::AttribLedger::Scope worker(&ledger, "workers.execute",
                                    /*aux=*/true);
    const Segment &s = segs[j];
    SegmentRun run = executeSegment(*automaton, plans[j],
                                    input.ptr(s.begin), s.begin,
                                    s.length(), options, &cancel);
    if (cancel.cancelled())
        return Status::error(ErrorCode::DeadlineExceeded, "segment ", j,
                             " missed its deadline");
    runs[j] = std::move(run);
    return Status();
}

/**
 * Per-segment simulation on the hardened pipeline, and the composition
 * chain that consumes it in segment order. The pipeline constructor
 * submits every segment; the composer then waits for each in turn
 * (the wall bucket "device.execute") and composes it (its own
 * "pap.compose" span) while later segments still execute. Every
 * cross-segment reduction runs here, in segment order, so scheduling
 * cannot leak into the results. The composer starts each segment's
 * golden check as soon as the check's start set is composed, a resumed
 * run's prefix check first, and waits for the last ones at the end.
 */
bool
PapRun::executeAndCompose()
{
    pipelineRan = true;
    result.threadsUsed = exec::WorkerPool::resolveThreads(options.threads);
    runs.resize(segs.size());
    std::uint64_t longest = 0;
    for (const Segment &s : segs)
        longest = std::max(longest, s.length());
    // Segments and golden checks share one pool. While the segment
    // workers leave a hardware thread idle, it takes one worker more:
    // t workers and a check worker of its own would end no sooner than
    // max(S/t, C) for segment work S and check work C, and t + 1
    // shared ones need about (S + C)/(t + 1). A run whose segments
    // draw faults from shared budgets runs on one worker, so they
    // draw in segment order and the same faults strike at every
    // thread count.
    std::uint32_t pool_threads =
        result.threadsUsed +
        (result.threadsUsed < std::thread::hardware_concurrency() ? 1 : 0);
    if (injector && injector->armsSegmentFaults())
        pool_threads = 1;
    exec::SegmentPipeline::Options pipe_opt;
    pipe_opt.exec = makeHardenedOptions(options, pool_threads, longest);
    pipe_opt.attrib = &ledger;
    const auto region_t0 = std::chrono::steady_clock::now();
    exec::SegmentPipeline pipe(
        pipe_opt, segs.size(),
        [this](std::size_t j, const exec::CancellationToken &cancel) {
            return executeTask(j, cancel);
        },
        first);
    // A resumed run's restored prefix has no per-segment true sets: it
    // is checked as one slice from the initial set.
    checks.resize(segs.size() - first + (first > 0 ? 1 : 0));
    std::size_t k = 0;
    if (first > 0)
        startCheck(pipe, k++, Segment{0, segs[first - 1].end});
    for (std::size_t j = first; j < segs.size(); ++j) {
        startCheck(pipe, k++, segs[j]);
        obs::Phase execute(sink, "pap.execute", &ledger, "device.execute");
        const exec::TaskReport &tr = pipe.await(j);
        execute.close({{"segment", static_cast<double>(j)}});
        obs::Phase compose(sink, "pap.compose");
        if (!composeSegment(j, tr))
            return false;
    }
    // Pipeline census: wall-clock of the execute+compose region and
    // how much of it the composer spent blocked on segment handoffs.
    // Diagnostics only — reports and modeled metrics never depend on
    // these numbers.
    result.pipelineWallMs = obs::msSince(region_t0);
    result.composerStallMs = pipe.composerStallMs();
    result.pipelineOccupancy =
        result.pipelineWallMs > 0.0
            ? std::max(0.0, 1.0 - result.composerStallMs /
                                      result.pipelineWallMs)
            : 1.0;
    obs::metrics().add("pipeline.composer.stalls",
                       pipe.composerStalls());
    obs::metrics().observe("pipeline.composer.stall_ms",
                           result.composerStallMs);
    obs::metrics().setGauge("pipeline.occupancy",
                            result.pipelineOccupancy);

    // Merging the composed true reports is host composition too.
    obs::Phase compose(sink, "pap.compose", &ledger, "compose.decode");
    result.reports = std::move(frontier.reports);
    sortAndDedupReports(result.reports);
    result.papReportEvents = frontier.papEntries;
    compose.close({{"entries", static_cast<double>(frontier.papEntries)},
                   {"true_reports",
                    static_cast<double>(result.reports.size())}});
    obs::Phase wait(sink, "pap.baseline.wait", &ledger, "baseline.wait");
    pipe.drain();
    return true;
}

/**
 * Compose segment @p j, whose task reported @p tr, onto the frontier:
 * recover it from the oracle if every attempt failed, judge its paths
 * against the predecessor's true final active set, fold it in, take
 * its engine census, and checkpoint. False when the run stops after it.
 */
bool
PapRun::composeSegment(std::size_t j, const exec::TaskReport &tr)
{
    const Segment &s = segs[j];
    const auto compose_t0 = std::chrono::steady_clock::now();
    ComposeInput seg;
    seg.plan = plans[j];
    seg.data = input.ptr(s.begin);
    seg.begin = s.begin;
    seg.length = s.length();
    seg.failed = !tr.status.ok();
    seg.retried = tr.retried;
    if (seg.failed)
        warn("segment ", j, " failed after ", tr.attempts, " attempts (",
             tr.status.message(),
             "); recovering it from the sequential oracle");
    // A dropped inter-segment downlink loses the predecessor's true
    // final active set; composition then judges this segment's paths
    // against an empty T (the verification oracle catches the damage
    // downstream).
    seg.truthLost = j > 0 && injector && injector->onFivDownload();
    SegmentTruth truth = composeStep(*automaton, frontier, seg, runs[j]);
    if (seg.failed) {
        result.degraded = true;
        obs::metrics().add("exec.segments.recovered");
        // The oracle repaired whatever the injected worker faults
        // broke; close their detected/recovered loop.
        if (injector && tr.faultsInjected > 0)
            injector->markRecovered(tr.faultsInjected);
    }
    foldSegment(frontier, seg, runs[j], std::move(truth));
    std::array<std::uint64_t, 8> seg_octiles{};
    for (const auto &rec : runs[j].flows) {
        result.engineSuccRows += rec.counters.succRows;
        result.engineBytesTouched += rec.counters.bytesTouched;
        result.engineShiftSteps += rec.counters.shiftSteps;
        for (std::size_t k = 0; k < seg_octiles.size(); ++k) {
            seg_octiles[k] += rec.counters.densityOctiles[k];
            result.engineDensityOctiles[k] +=
                rec.counters.densityOctiles[k];
        }
    }
    // Composed: the frontier holds everything later stages need, so
    // the segment's flow records go now rather than at the run's end.
    runs[j] = SegmentRun{};
    ledger.chargeWall(seg.failed ? "compose.recover" : "compose.decode",
                      obs::msSince(compose_t0));
    if (sink) {
        // Mean active-state density octile over this segment's flow
        // steps, as a counter track next to the flow arrows.
        std::uint64_t steps = 0, weighted = 0;
        for (std::size_t k = 0; k < seg_octiles.size(); ++k) {
            steps += seg_octiles[k];
            weighted += k * seg_octiles[k];
        }
        sink->counterEvent("engine.active_density",
                           steps ? static_cast<double>(weighted) /
                                       static_cast<double>(steps)
                                 : 0.0);
    }

    if (!options.checkpointPath.empty()) {
        obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
        frontier.rngState = injector ? injector->rngState()
                                     : std::array<std::uint64_t, 4>{};
        const Status saved =
            exec::saveCheckpoint(options.checkpointPath, frontier);
        if (!saved.ok())
            warn("checkpointing degraded: ", saved.message());
    }

    if (options.stopAfterSegment >= 0 &&
        j == static_cast<std::uint64_t>(options.stopAfterSegment)) {
        // Simulated kill for crash/resume tests: stop mid-chain with
        // the checkpoint (if any) on disk. Stopping after the last
        // segment is allowed too — it leaves a fully-complete frontier
        // (nextSegment == segs.size()) whose resume is a pure
        // compose-from-checkpoint run.
        result.status = Status::error(
            ErrorCode::Cancelled, "run stopped after segment ", j,
            " (stop-after-segment)",
            options.checkpointPath.empty() ? "" : "; checkpoint saved");
        return false;
    }
    return true;
}

/** Settle the sequential execution, then verify the composed reports
    against it. */
bool
PapRun::verify()
{
    // Everything below compares against or scales by the sequential
    // execution.
    settleSequential(/*verifying=*/true);
    if (!result.status.ok())
        return false;
    const std::uint64_t seq_matches = seq.counters.matches;
    result.transitionRatio =
        seq_matches ? static_cast<double>(frontier.flowTransitions) /
                          static_cast<double>(seq_matches)
                    : 1.0;
    result.flowTransitions = frontier.flowTransitions;
    result.seqTransitions = seq_matches;
    const std::uint64_t pap_entries = result.papReportEvents;
    result.reportInflation =
        result.seqReportEvents
            ? static_cast<double>(pap_entries) /
                  static_cast<double>(result.seqReportEvents)
            : (pap_entries ? static_cast<double>(pap_entries) : 1.0);

    obs::Phase phase(sink, "pap.verify", &ledger, "verify");
    if (result.reports == seq.reports) {
        result.verified = true;
        return true;
    }
    // Divergence is either an injected fault or a PAPsim bug; either
    // way the sequential oracle repairs the result (Section 3.4: the
    // golden execution is always available).
    obs::metrics().add("runner.verification_divergence");
    warn("composed parallel reports diverge from the sequential "
         "execution for '",
         nfa.name(), "' (", result.reports.size(), " composed vs ",
         seq.reports.size(), " sequential); recovering the golden result");
    if (injector) {
        const std::uint64_t caught =
            injector->injected() > injector->detected()
                ? injector->injected() - injector->detected()
                : 0;
        injector->markDetected(caught);
        injector->markRecovered(caught);
    }
    result.reports = seq.reports;
    result.verified = false;
    result.recovered = true;
    result.degraded = true;
    return true;
}

/** The cycle-accounting timeline and the per-segment diagnostics. */
void
PapRun::timeline()
{
    obs::Phase phase(sink, "pap.timeline", &ledger, "timeline");
    // Resumed segments replay their checkpointed timing records, so a
    // killed-and-resumed run reproduces the same per-figure numbers.
    std::vector<SegmentTimingInput> timing_in;
    timing_in.reserve(frontier.segments.size());
    for (auto &cp : frontier.segments)
        timing_in.push_back(std::move(cp.timing));
    const TimelineResult timeline =
        simulateTimeline(timing_in, seq.cycles, options, config);
    result.papCycles = timeline.papCycles;
    result.speedup = timeline.speedup;
    result.goldenCapped = timeline.goldenCapped;
    result.avgActiveFlows = timeline.avgActiveFlows;
    // Live-cache census (all zero when every segment fit the SVC).
    // The modeled re-upload stall is worker-side device time that
    // overlaps the host wall clock, so it is charged to an aux
    // attribution bucket at the AP's symbol-cycle rate.
    result.svcEvictions = timeline.svc.evictions;
    result.svcReuploads = timeline.svc.reuploads;
    result.svcLoadHits = timeline.svc.loadHits;
    result.svcLoadMisses = timeline.svc.loadMisses;
    const std::uint64_t svc_lookups =
        result.svcLoadHits + result.svcLoadMisses;
    result.svcHitRate =
        svc_lookups ? static_cast<double>(result.svcLoadHits) /
                          static_cast<double>(svc_lookups)
                    : 1.0;
    result.svcReuploadCycles = timeline.svcReuploadCycles;
    if (timeline.svcReuploadCycles > 0)
        ledger.chargeAux("workers.svc_reupload",
                         static_cast<double>(
                             timeline.svcReuploadCycles) *
                             config.timing.symbolCycleNs * 1e-6);
    if (result.recovered) {
        // Recovery replays the oracle's answer; the golden-execution
        // guarantee bounds a repaired run at the baseline cost.
        result.papCycles = result.baselineCycles;
        result.speedup = 1.0;
    }
    result.switchOverheadPct =
        timeline.busyCycles
            ? 100.0 * static_cast<double>(timeline.switchCycles) /
                  static_cast<double>(timeline.busyCycles)
            : 0.0;
    // Per-segment diagnostics, from each segment's record (resumed
    // segments' from the checkpoint; the timing moved to timing_in).
    result.segments.resize(segs.size());
    for (std::size_t j = 0; j < segs.size(); ++j) {
        auto &diag = result.segments[j];
        const exec::SegmentCheckpoint &cp = frontier.segments[j];
        diag.begin = segs[j].begin;
        diag.length = segs[j].length();
        if (plans[j]) {
            diag.flows = static_cast<std::uint32_t>(plans[j]->flows.size());
            diag.totalPaths =
                static_cast<std::uint32_t>(plans[j]->paths.size());
        }
        diag.deactivated = cp.deactivated;
        diag.converged = cp.converged;
        diag.ranToEnd = cp.ranToEnd;
        diag.truePaths = cp.truePaths;
        diag.entries = timing_in[j].totalEntries;
        diag.tDone = timeline.tDone[j];
        diag.tResolve = timeline.tResolve[j];
    }

    const Cycles switch_cost = config.timing.contextSwitchCycles;
    result.contextSwitches =
        switch_cost ? timeline.switchCycles / switch_cost : 0;
    for (const Cycles tcpu : timeline.tcpuCycles)
        if (tcpu >= config.timing.stateVectorUploadCycles)
            ++result.stateVectorUploads;
    double tcpu_sum = 0;
    for (std::size_t j = 1; j < timeline.tcpuCycles.size(); ++j)
        tcpu_sum += static_cast<double>(timeline.tcpuCycles[j]);
    result.avgTcpuCycles =
        timeline.tcpuCycles.size() > 1
            ? tcpu_sum /
                  static_cast<double>(timeline.tcpuCycles.size() - 1)
            : 0.0;
    for (std::size_t j = 1; j < timeline.tcpuCycles.size(); ++j)
        obs::metrics().observe(
            "runner.segment.tcpu_cycles",
            static_cast<double>(timeline.tcpuCycles[j]));
    phase.close({{"pap_cycles", static_cast<double>(result.papCycles)},
                 {"speedup", result.speedup}});

    // The run completed; its checkpoint would only confuse a rerun.
    if (!options.checkpointPath.empty()) {
        obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
        exec::removeCheckpoint(options.checkpointPath);
    }

    // Datapath intensity: estimated bytes the engines touched per
    // flow-symbol executed this run (resumed segments excluded from
    // both numerator and denominator).
    const std::uint64_t engine_symbols =
        frontier.flowSymbolCycles - resumedFlowSymbols;
    result.engineBytesPerSymbol =
        engine_symbols
            ? static_cast<double>(result.engineBytesTouched) /
                  static_cast<double>(engine_symbols)
            : 0.0;
}

/**
 * The single exit: settle the sequential execution if the pipeline
 * ran (an adopted result settled it already; a refused call runs
 * nothing), and finalize the attribution ledger against the run's
 * measured wall time, so the wall buckets (plus the "other" residual)
 * sum to attrib.wallMs on success and failure alike; then record the
 * run's metrics and trace its simulated timeline.
 */
PapResult
PapRun::finish()
{
    if (pipelineRan)
        settleSequential(/*verifying=*/false);
    // The chain's census, as far as it got (zero if it never began).
    result.flowSymbolCycles = frontier.flowSymbolCycles;
    result.segmentsRetried = frontier.segmentsRetried;
    result.segmentsRecovered = frontier.segmentsRecovered;
    ledger.finalize(obs::msSince(t0));
    result.attrib = ledger.snapshot();
    recordRunMetrics(result);
    traceSimulatedTimeline(result);
    return std::move(result);
}

/** Both runPap entry points: @p prepared is null on the Nfa one. */
PapResult
runStages(const Nfa &nfa, const PreparedAutomaton *prepared,
          const InputTrace &input, const ApConfig &config,
          const PapOptions &options)
{
    PAP_ASSERT(nfa.finalized(), "runPap on unfinalized NFA");
    PAP_ASSERT(!input.empty(), "runPap on empty input");

    PAP_TRACE_SCOPE("pap.run");
    PapRun run(nfa, prepared, input, config, options);
    if (run.analyze() && run.partitionAndPlan() && run.checkOverflow() &&
        run.resume() && run.executeAndCompose() && run.verify())
        run.timeline();
    return run.finish();
}

} // namespace

PapResult
runPap(const PreparedAutomaton &automaton, const InputTrace &input,
       const ApConfig &config, const PapOptions &options)
{
    return runStages(automaton.nfa, &automaton, input, config, options);
}

PapResult
runPap(const Nfa &nfa, const InputTrace &input, const ApConfig &config,
       const PapOptions &options)
{
    return runStages(nfa, nullptr, input, config, options);
}

} // namespace pap
