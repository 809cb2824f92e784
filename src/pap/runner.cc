#include "pap/runner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <thread>

#include "ap/placement.h"
#include "common/logging.h"
#include "engine/dense_nfa.h"
#include "engine/functional_engine.h"
#include "nfa/analysis.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/composer.h"
#include "pap/exec/checkpoint.h"
#include "pap/exec/driver.h"
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
              const PapOptions &options)
{
    PAP_TRACE_SCOPE("pap.sequential");
    CompiledNfa cnfa(nfa);
    const EngineContext engines(cnfa, options.engine);
    if (!engines.status().ok()) {
        SequentialResult failed;
        failed.status = engines.status();
        return failed;
    }
    const auto engine = engines.make(/*starts=*/true);
    engine->reset(cnfa.initialActive(), 0);
    engine->run(input.begin(), input.size());

    SequentialResult result;
    result.engineBackend = engines.backendName();
    result.engineDatapath = engines.datapathName();
    result.matches = engine->counters().matches;
    result.activeDensity = activeDensity(engine->counters(), cnfa.size());
    result.reports = engine->takeReports();
    const std::uint64_t entries = result.reports.size();
    sortAndDedupReports(result.reports);
    result.cycles =
        input.size() +
        static_cast<Cycles>(options.reportCostCyclesPerEvent *
                            static_cast<double>(entries));
    return result;
}

namespace {

/** Fill the Table-1/Figure-8 independent fields of the result. */
void
describeRun(PapResult &result, const Nfa &nfa,
            std::uint32_t num_segments, const Placement &placement)
{
    result.name = nfa.name();
    result.numSegments = num_segments;
    result.idealSpeedup = num_segments;
    result.halfCoresPerCopy = placement.halfCoresPerCopy;
}

/**
 * Record the run's headline metrics and per-segment distributions into
 * the process registry (the same numbers PapResult carries, so tests
 * and dumped JSON can cross-check them).
 */
/** Milliseconds elapsed since @p t0. */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

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
    if (result.svcBatches > 1)
        m.add("runner.svc_batched_runs");
    // Live-cache census (Evict mode; all zero under Batch).
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
    m.add("engine.counters.mask_words", result.engineMaskWords);
    m.add("engine.counters.bytes_touched", result.engineBytesTouched);
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

/** Hash-combine for the checkpoint identity (splitmix64 finalizer). */
std::uint64_t
identityMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

/**
 * Identity hash binding a checkpoint to one (automaton, input,
 * partitioning) tuple. Thread count and retry knobs are deliberately
 * excluded: a resume with a different --threads must still match.
 */
std::uint64_t
runIdentity(const Nfa &nfa, const InputTrace &input,
            std::size_t num_segments, Symbol boundary)
{
    std::uint64_t h = 0x5041505349u; // "PAPSI"
    for (const char c : nfa.name())
        h = identityMix(h, static_cast<std::uint64_t>(c));
    h = identityMix(h, nfa.size());
    h = identityMix(h, input.size());
    h = identityMix(h, num_segments);
    h = identityMix(h, boundary);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, input.size() / 64);
    for (std::uint64_t i = 0; i < input.size(); i += stride)
        h = identityMix(h, input[i]);
    return h;
}

} // namespace

PapResult
runPap(const Nfa &nfa, const InputTrace &input, const ApConfig &config,
       const PapOptions &options)
{
    PAP_ASSERT(nfa.finalized(), "runPap on unfinalized NFA");
    PAP_ASSERT(!input.empty(), "runPap on empty input");

    PAP_TRACE_SCOPE("pap.run");
    // One sink pointer for the whole run so phase spans stay balanced
    // even if a tracer is installed or removed mid-run.
    obs::TraceSink *sink = obs::tracer();
    PapResult result;

    const auto run_t0 = std::chrono::steady_clock::now();
    obs::AttribLedger ledger;

    // --- Sequential oracle (concurrent) -----------------------------
    // The golden sequential execution (Section 3.4) verifies the
    // composed reports and supplies the baseline cycles. It always
    // runs on the sparse reference backend, so a word-packed run is
    // cross-checked against an independent execution, and on its own
    // thread, so analysis, partitioning, planning and execution run
    // beside it. Its own time is the aux bucket "baseline"; the
    // composer's wait for it is the wall bucket "baseline.wait".
    std::future<SequentialResult> oracle =
        std::async(std::launch::async, [&] {
            obs::AttribLedger::Scope charge(&ledger, "baseline",
                                            /*aux=*/true);
            if (sink)
                sink->begin("pap.baseline");
            PapOptions oracle_opt = options;
            oracle_opt.engine = EngineKind::Sparse;
            SequentialResult r = runSequential(nfa, input, oracle_opt);
            if (sink)
                sink->end();
            return r;
        });
    SequentialResult seq;
    // Join the oracle (once) and take what the result needs from it.
    // The oracle only fails on a typed selection error (an invalid
    // PAP_SIMD value), which fails the run like an invalid flag.
    const auto await_oracle = [&] {
        if (!oracle.valid())
            return;
        if (sink)
            sink->begin("pap.baseline.wait");
        obs::AttribLedger::Scope wait(&ledger, "baseline.wait");
        seq = oracle.get();
        wait.stop();
        if (sink)
            sink->end();
        result.baselineCycles = seq.cycles;
        result.seqReportEvents = seq.reports.size();
        if (!seq.status.ok() && result.status.ok())
            result.status = seq.status;
    };

    // Attribution ledger: every exit path joins the oracle and
    // finalizes the ledger against the run's measured wall time, so
    // the wall buckets (plus the "other" residual) sum to
    // attrib.wallMs on success and failure alike.
    const auto finish_attrib = [&] {
        await_oracle();
        ledger.finalize(msSince(run_t0));
        result.attrib = ledger.snapshot();
    };

    // --- Static analysis & placement -------------------------------
    if (sink)
        sink->begin("pap.analyze");
    const auto analyze_t0 = std::chrono::steady_clock::now();
    // The Auto backend choice is steered by a sparse probe over the
    // input's prefix, not by the concurrent oracle's full-trace
    // density.
    const RunContext ctx(nfa, options.engine, &input);
    if (!ctx.status().ok()) {
        // Typed selection error (an invalid PAP_ENGINE value): the
        // run must fail like an invalid --engine flag, not silently
        // execute on a fallback backend.
        if (sink)
            sink->end();
        result.status = ctx.status();
        ledger.chargeWall("analyze", msSince(analyze_t0));
        finish_attrib();
        recordRunMetrics(result);
        return result;
    }
    const Result<PipelineMode> mode_resolved =
        resolvePipelineMode(options.pipeline);
    if (!mode_resolved.ok()) {
        if (sink)
            sink->end();
        result.status = mode_resolved.status();
        ledger.chargeWall("analyze", msSince(analyze_t0));
        finish_attrib();
        recordRunMetrics(result);
        return result;
    }
    const bool overlap =
        mode_resolved.value() == PipelineMode::Overlap;
    result.pipelineMode = pipelineModeName(mode_resolved.value());
    const CompiledNfa &cnfa = ctx.compiled();
    result.engineBackend = ctx.backendName();
    result.engineDatapath = ctx.datapathName();
    const Components comps = connectedComponents(nfa);
    const std::vector<StateId> asg = alwaysActiveStates(nfa);
    const Placement placement = placeAutomaton(
        nfa, comps, config, options.routingMinHalfCores);

    // Segments: limited by half-cores, and by the rule that a segment
    // should span at least a couple of TDM quanta to be worth a flow.
    std::uint32_t num_segments = placement.inputSegments(config);
    const std::uint64_t min_seg = 2ull * options.tdmQuantum;
    num_segments = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(num_segments,
                                   input.size() / min_seg)));
    describeRun(result, nfa, num_segments, placement);
    ledger.chargeWall("analyze", msSince(analyze_t0));
    if (sink)
        sink->end();

    if (num_segments == 1) {
        await_oracle();
        result.papCycles = seq.cycles;
        result.speedup = 1.0;
        result.reports = seq.reports;
        result.papReportEvents = seq.reports.size();
        result.verified = true;
        obs::metrics().add("runner.sequential_fallbacks");
        finish_attrib();
        recordRunMetrics(result);
        return result;
    }

    // --- Partitioning ----------------------------------------------
    if (sink)
        sink->begin("pap.partition");
    const auto partition_t0 = std::chrono::steady_clock::now();
    // The word-packed backends read the per-symbol ranges straight off
    // the DenseNfa match-mask popcounts; the sparse path runs the
    // RangeAnalysis pass here (the numbers are identical by
    // construction).
    const PartitionProfile profile =
        ctx.engines().denseNfa()
            ? choosePartitionSymbol(
                  ctx.engines().denseNfa()->rangeSizes(), input,
                  num_segments)
            : choosePartitionSymbol(RangeAnalysis(nfa), input,
                                    num_segments);
    result.boundarySymbol = profile.symbol;
    result.boundaryRangeSize = profile.rangeSize;
    const std::vector<Segment> segs =
        partitionInput(input, profile.symbol, num_segments);
    result.numSegments = static_cast<std::uint32_t>(segs.size());
    result.idealSpeedup = result.numSegments;
    ledger.chargeWall("partition", msSince(partition_t0));
    if (sink)
        sink->end({{"segments", static_cast<double>(segs.size())},
                   {"boundary_symbol",
                    static_cast<double>(profile.symbol)},
                   {"range_size",
                    static_cast<double>(profile.rangeSize)}});

    // --- Flow planning ----------------------------------------------
    // Every segment's plan is looked up before any segment executes,
    // so the overflow policy can inspect the whole run's SVC pressure
    // before cycles are spent. Segments cut after the same symbol
    // share one plan; the golden segment 0 has none (an empty plan).
    if (sink)
        sink->begin("pap.plan");
    const auto plan_t0 = std::chrono::steady_clock::now();
    FlowPlanTable plan_table("runner.plans.built");
    const FlowPlan golden_plan;
    std::vector<const FlowPlan *> plans(segs.size(), &golden_plan);
    double sum_in_range = 0, sum_after_cc = 0, sum_after_parent = 0;
    for (std::size_t j = 1; j < segs.size(); ++j) {
        const Symbol boundary = input[segs[j].begin - 1];
        plans[j] = &plan_table.get(nfa, comps, asg, boundary, options);
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
    ledger.chargeWall("plan", msSince(plan_t0));
    if (sink)
        sink->end({{"segments", static_cast<double>(segs.size())},
                   {"plans_built",
                    static_cast<double>(plan_table.built())},
                   {"max_flows_per_segment",
                    static_cast<double>(result.maxFlowsPerSegment)}});

    // --- Overflow policy --------------------------------------------
    // The ASG flow occupies one SVC entry alongside the enumeration
    // flows, so a segment fits iff flows + asg <= SVC capacity. The
    // capacity defaults to the device's (512 on the D480) but is
    // overridable for sensitivity sweeps (--svc-capacity).
    const std::uint32_t svc_capacity =
        options.svcCapacity > 0 ? options.svcCapacity
                                : config.svcEntriesPerDevice;
    const std::uint32_t asg_slots = asg.empty() ? 0u : 1u;
    const std::uint32_t batch_cap = std::max<std::uint32_t>(
        1, svc_capacity - std::min(svc_capacity - 1, asg_slots));
    const bool evict_mode =
        options.overflowPolicy == OverflowPolicy::Evict;
    result.svcOverflow = result.maxFlowsPerSegment > batch_cap;
    result.svcCapacity = svc_capacity;
    result.svcPolicy = svcPolicyName(options.svcPolicy);

    const auto sequential_fallback = [&](const std::string &why) {
        warn("'", nfa.name(), "' falls back to the golden sequential "
             "execution: ", why);
        obs::metrics().add("runner.sequential_fallbacks");
        await_oracle();
        result.papCycles = seq.cycles;
        result.speedup = 1.0;
        result.reports = seq.reports;
        result.papReportEvents = seq.reports.size();
        result.verified = true;
        result.degraded = true;
        finish_attrib();
        recordRunMetrics(result);
        return result;
    };

    if (result.maxFlowsPerSegment > options.maxFlowsPerSegment) {
        const std::string why = detail::concat(
            "needs ", result.maxFlowsPerSegment,
            " enumeration flows per segment, above the configured "
            "limit of ", options.maxFlowsPerSegment);
        if (options.overflowPolicy == OverflowPolicy::Fail) {
            result.status = Status::error(ErrorCode::CapacityExceeded,
                                          "'", nfa.name(), "' ", why);
            finish_attrib();
            recordRunMetrics(result);
            return result;
        }
        // Batching a plan this degenerate would be slower than the
        // baseline, so Batch degrades to the sequential result too.
        return sequential_fallback(why);
    }
    if (result.svcOverflow &&
        options.overflowPolicy != OverflowPolicy::Batch &&
        !evict_mode) {
        const std::string why = detail::concat(
            "needs up to ", result.maxFlowsPerSegment, " + ", asg_slots,
            " flow contexts per segment, above the ", svc_capacity,
            "-entry State Vector Cache");
        if (options.overflowPolicy == OverflowPolicy::Fail) {
            result.status = Status::error(ErrorCode::CapacityExceeded,
                                          "'", nfa.name(), "' ", why);
            finish_attrib();
            recordRunMetrics(result);
            return result;
        }
        return sequential_fallback(why);
    }

    // --- Checkpoint resume ------------------------------------------
    // A checkpoint binds to one (automaton, input, partitioning)
    // identity; thread count and retry knobs are excluded so a killed
    // run can resume with a different --threads and still match.
    FaultInjector *const injector = options.faultInjector;
    const bool checkpointing = !options.checkpointPath.empty();
    const std::uint64_t identity =
        runIdentity(nfa, input, segs.size(), profile.symbol);
    exec::CheckpointFrontier frontier;
    frontier.identity = identity;
    if (checkpointing) {
        obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
        auto loaded = exec::loadCheckpoint(options.checkpointPath);
        if (loaded.ok()) {
            if (loaded.value().identity == identity &&
                loaded.value().nextSegment <= segs.size()) {
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
    const std::uint32_t first_segment = frontier.nextSegment;
    result.resumedFromCheckpoint = first_segment > 0;
    result.resumedSegments = first_segment;
    if (result.resumedFromCheckpoint) {
        obs::metrics().add("exec.checkpoint.resumes");
        if (injector)
            injector->restoreRngState(frontier.rngState);
    }

    // --- Per-segment simulation (hardened worker pool) --------------
    if (sink)
        sink->begin("pap.execute");
    result.threadsUsed =
        exec::WorkerPool::resolveThreads(options.threads);
    const std::vector<StateId> no_asg;
    std::vector<SegmentRun> runs(segs.size());
    std::vector<std::uint32_t> seg_batches(segs.size(), 1);

    std::uint64_t longest = 0;
    for (const Segment &s : segs)
        longest = std::max(longest, s.length());
    const exec::HardenedExecOptions exec_opt =
        makeHardenedOptions(options, result.threadsUsed, longest);

    // Every task writes only its own runs[j] / seg_batches[j] slot, so
    // scheduling order cannot leak into the results; all reductions
    // run in segment order in the composition loop below, as the
    // composer awaits each segment. In barrier mode the pipeline
    // constructor runs every segment to completion (the historical
    // behavior); in overlap mode it returns once the first handoff
    // window is submitted and the composer overlaps with execution.
    exec::SegmentPipeline::Options pipe_opt;
    pipe_opt.exec = exec_opt;
    pipe_opt.overlap = overlap;
    pipe_opt.window = options.pipelineWindow;
    pipe_opt.attrib = &ledger;
    const auto region_t0 = std::chrono::steady_clock::now();
    exec::SegmentPipeline pipe(
        pipe_opt, segs.size() - first_segment,
        [&](std::size_t idx,
            const exec::CancellationToken &cancel) -> Status {
            // Worker-side time overlaps the composer's wall clock in
            // overlap mode, so it is charged to an aux bucket.
            obs::AttribLedger::Scope worker(&ledger, "workers.execute",
                                            /*aux=*/true);
            const std::size_t j = first_segment + idx;
            const Segment &s = segs[j];
            const auto task_t0 = std::chrono::steady_clock::now();
            EngineScratch scratch(nfa.size());
            SegmentRun run;
            std::uint32_t batches = 1;
            if (j == 0) {
                run = runGoldenSegment(ctx.engines(),
                                       input.ptr(s.begin), s.begin,
                                       s.length(), scratch, injector,
                                       &cancel);
            } else if (plans[j]->flows.size() <= batch_cap ||
                       evict_mode) {
                // Fits the SVC — or Evict mode, which schedules the
                // whole plan at once and leaves residency churn to
                // the timeline's live cache. Running unbatched means
                // convergence merging sees every flow (batching
                // confines it within a batch), and makes the reports
                // byte-identical across policies and capacities by
                // construction.
                run = runEnumSegment(ctx.engines(), *plans[j], asg,
                                     input.ptr(s.begin), s.begin,
                                     s.length(), options, scratch,
                                     kInvalidFlow, &cancel);
            } else {
                // OverflowPolicy::Batch: the plan exceeds the SVC, so
                // run it in cache-sized batches, back to back. Flow
                // ids stay global (FlowSpec::id), so the merged run
                // composes exactly like an unbatched one; the ASG flow
                // runs once, in batch 0, under the whole plan's ASG id.
                const FlowPlan &plan = *plans[j];
                const auto asg_id =
                    static_cast<FlowId>(plan.flows.size());
                run.segBegin = s.begin;
                run.segLen = s.length();
                std::uint32_t b = 0;
                for (std::size_t first = 0;
                     first < plan.flows.size() && !cancel.cancelled();
                     first += batch_cap, ++b) {
                    const auto batch_t0 =
                        std::chrono::steady_clock::now();
                    const std::size_t last = std::min(
                        plan.flows.size(),
                        first + static_cast<std::size_t>(batch_cap));
                    FlowPlan sub;
                    sub.flows.assign(plan.flows.begin() + first,
                                     plan.flows.begin() + last);
                    SegmentRun part = runEnumSegment(
                        ctx.engines(), sub, b == 0 ? asg : no_asg,
                        input.ptr(s.begin), s.begin, s.length(),
                        options, scratch, asg_id, &cancel);
                    if (b == 0)
                        run.asgIndex = part.asgIndex;
                    for (auto &rec : part.flows) {
                        rec.batch = b;
                        run.flows.push_back(std::move(rec));
                    }
                    // Re-upload batches past the first are pure SVC
                    // overflow overhead: account them separately.
                    if (b > 0)
                        ledger.chargeAux("workers.svc_batch",
                                         msSince(batch_t0));
                }
                batches = std::max(1u, b);
            }
            if (options.emulateDeviceNsPerSymbol > 0.0) {
                // Emulate the AP device streaming this segment: the
                // task occupies at least length * ns of wall-clock,
                // sleeping out whatever the simulation left over
                // (cancellation-aware, so the watchdog still works).
                const auto device = std::chrono::nanoseconds(
                    static_cast<std::int64_t>(
                        static_cast<double>(s.length()) *
                        options.emulateDeviceNsPerSymbol));
                const auto elapsed =
                    std::chrono::steady_clock::now() - task_t0;
                if (device > elapsed)
                    cancel.waitCancelledFor(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(device -
                                                      elapsed));
            }
            if (cancel.cancelled())
                return Status::error(ErrorCode::DeadlineExceeded,
                                     "segment ", j,
                                     " cancelled by the watchdog");
            runs[j] = std::move(run);
            seg_batches[j] = batches;
            return Status();
        });
    // Composer-side cost of the pipeline constructor: in barrier mode
    // this is the whole device execution (the constructor drains); in
    // overlap mode it is just the first window's admission.
    ledger.chargeWall("device.execute", msSince(region_t0));
    obs::metrics().add(overlap ? "pipeline.runs.overlap"
                               : "pipeline.runs.barrier");
    if (sink)
        sink->end({{"segments", static_cast<double>(segs.size())},
                   {"threads",
                    static_cast<double>(result.threadsUsed)},
                   {"overlap", overlap ? 1.0 : 0.0}});

    std::vector<std::uint8_t> seg_failed(segs.size(), 0);
    std::vector<std::uint8_t> seg_retried(segs.size(), 0);

    // --- Composition chain ------------------------------------------
    if (sink)
        sink->begin("pap.compose");
    std::vector<SegmentTruth> truths(segs.size());
    const std::vector<StateId> no_truth;
    std::uint64_t flow_transitions = frontier.flowTransitions;
    result.flowSymbolCycles = frontier.flowSymbolCycles;
    const std::uint64_t base_flow_symbols = frontier.flowSymbolCycles;
    result.segmentsRetried = frontier.segmentsRetried;
    result.segmentsRecovered = frontier.segmentsRecovered;
    const std::uint64_t base_entries = frontier.papEntries;
    const std::vector<ReportEvent> base_reports = frontier.reports;
    std::vector<StateId> prev_final = frontier.finalActive;

    /** Timing-model input for a composed segment (also checkpointed). */
    const auto build_timing = [&](std::size_t j) {
        SegmentTimingInput t;
        t.segLen = segs[j].length();
        t.totalEntries = truths[j].totalEntries;
        t.aliveEnumFlowsAtEnd = truths[j].aliveEnumFlowsAtEnd;
        t.hasEnumFlows =
            j > 0 && !plans[j]->flows.empty() && !seg_failed[j];
        t.numBatches = seg_batches[j];
        t.batchReloadCycles = config.timing.stateVectorUploadCycles;
        // Evict mode: the timeline replays this segment's flow
        // schedule through a live cache of the configured capacity
        // and policy, charging a re-upload per restored context.
        t.svcEvict = evict_mode && t.hasEnumFlows;
        t.svcCapacity = svc_capacity;
        t.svcPolicy = options.svcPolicy;
        for (const auto &rec : runs[j].flows) {
            FlowTimingInfo info;
            info.kind = rec.kind;
            info.symbolsProcessed = rec.symbolsProcessed;
            info.batch = rec.batch;
            info.isTrue =
                rec.kind != FlowKind::Enum ||
                (rec.id < truths[j].flowTrue.size() &&
                 truths[j].flowTrue[rec.id] != 0);
            t.flows.push_back(info);
        }
        return t;
    };

    for (std::size_t j = first_segment; j < segs.size(); ++j) {
        const Segment &s = segs[j];
        // Handoff: block until this segment's execution has finished
        // (a no-op in barrier mode, where the pipeline constructor
        // already drained) and fold its ordered reduction. Doing the
        // reduction here, in segment order, keeps every cross-task
        // aggregate identical between the two scheduling modes.
        const auto await_t0 = std::chrono::steady_clock::now();
        const exec::TaskReport &tr = pipe.await(j - first_segment);
        ledger.chargeWall("pipeline.stall", msSince(await_t0));
        const auto compose_t0 = std::chrono::steady_clock::now();
        seg_retried[j] = tr.retried ? 1 : 0;
        if (!tr.status.ok()) {
            seg_failed[j] = 1;
            seg_batches[j] = 1;
            warn("segment ", j, " failed after ", tr.attempts,
                 " attempts (", tr.status.message(),
                 "); recovering it from the sequential oracle");
        }
        result.svcBatches =
            std::max(result.svcBatches, seg_batches[j]);
        if (seg_batches[j] > 1)
            obs::metrics().add("runner.svc_batches", seg_batches[j]);
        // A dropped inter-segment downlink loses the predecessor's
        // true final active set; composition then judges this
        // segment's paths against an empty T (the verification oracle
        // catches the damage downstream).
        const bool truth_lost =
            j > 0 && injector && injector->onFivDownload();

        if (seg_failed[j]) {
            // Per-segment oracle continuation: the segment exhausted
            // its retries, so recompute exactly this slice of input
            // from the composition frontier with the sequential
            // engine. Timing degrades to a single golden-like flow.
            ++result.segmentsRecovered;
            result.degraded = true;
            obs::metrics().add("exec.segments.recovered");
            EngineScratch scratch(nfa.size());
            // Deliberately the sparse reference engine: the recovery
            // path must be independent of the backend under test.
            FunctionalEngine engine(cnfa, /*starts=*/true, &scratch);
            engine.reset(j == 0 ? cnfa.initialActive() : prev_final,
                         s.begin);
            engine.run(input.ptr(s.begin), s.length());
            FlowRecord rec;
            rec.id = 0;
            rec.kind = FlowKind::Golden;
            rec.symbolsProcessed = s.length();
            rec.cause = DeathCause::RanToEnd;
            rec.finalSnapshot = engine.snapshot();
            rec.counters = engine.counters();
            rec.reports = engine.takeReports();
            runs[j] = SegmentRun{};
            runs[j].segBegin = s.begin;
            runs[j].segLen = s.length();
            runs[j].flows.push_back(std::move(rec));
            truths[j] = composeGolden(runs[j]);
            // The oracle repaired whatever the injected worker faults
            // broke; close their detected/recovered loop.
            if (injector && tr.faultsInjected > 0)
                injector->markRecovered(tr.faultsInjected);
        } else if (j == 0) {
            truths[0] = composeGolden(runs[0]);
        } else {
            truths[j] = composeEnum(cnfa, comps, *plans[j], runs[j],
                                    truth_lost ? no_truth : prev_final);
        }
        prev_final = truths[j].finalActive;
        if (seg_retried[j])
            ++result.segmentsRetried;
        std::array<std::uint64_t, 8> seg_octiles{};
        for (const auto &rec : runs[j].flows) {
            flow_transitions += rec.counters.matches;
            result.flowSymbolCycles += rec.counters.symbols;
            result.engineSuccRows += rec.counters.succRows;
            result.engineMaskWords += rec.counters.maskWords;
            result.engineBytesTouched += rec.counters.bytesTouched;
            for (std::size_t k = 0; k < seg_octiles.size(); ++k) {
                seg_octiles[k] += rec.counters.densityOctiles[k];
                result.engineDensityOctiles[k] +=
                    rec.counters.densityOctiles[k];
            }
        }
        ledger.chargeWall(seg_failed[j] ? "compose.recover"
                                        : "compose.decode",
                          msSince(compose_t0));
        if (sink) {
            // Mean active-state density octile over this segment's
            // flow steps, as a counter track next to the flow arrows.
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

        if (options.emulateDeviceNsPerSymbol > 0.0 && j > 0 &&
            !plans[j]->flows.empty() && !seg_failed[j]) {
            // Emulate the host's modeled Tcpu for this segment in
            // wall-clock (upload + decode, the same formula the
            // timeline charges — Fig. 11), at the emulated device
            // rate, net of the real compose time just spent. This is
            // the serial host work the overlap schedule exists to
            // hide behind later segments' device time.
            Cycles decode = options.decodeBaseCycles;
            if (truths[j].aliveEnumFlowsAtEnd > 0)
                decode += options.decodePerFlowCycles *
                          truths[j].aliveEnumFlowsAtEnd;
            const auto tcpu = std::chrono::nanoseconds(
                static_cast<std::int64_t>(
                    static_cast<double>(
                        config.timing.stateVectorUploadCycles +
                        decode) *
                    options.emulateDeviceNsPerSymbol));
            const auto spent =
                std::chrono::steady_clock::now() - compose_t0;
            if (tcpu > spent) {
                obs::AttribLedger::Scope emu(&ledger,
                                             "compose.emulation");
                std::this_thread::sleep_for(tcpu - spent);
            }
        }

        if (checkpointing) {
            obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
            frontier.nextSegment = static_cast<std::uint32_t>(j + 1);
            frontier.finalActive = prev_final;
            frontier.reports.insert(frontier.reports.end(),
                                    truths[j].trueReports.begin(),
                                    truths[j].trueReports.end());
            frontier.papEntries += truths[j].totalEntries;
            frontier.flowTransitions = flow_transitions;
            frontier.flowSymbolCycles = result.flowSymbolCycles;
            frontier.segmentsRetried = result.segmentsRetried;
            frontier.segmentsRecovered = result.segmentsRecovered;
            frontier.rngState = injector
                                    ? injector->rngState()
                                    : std::array<std::uint64_t, 4>{};
            exec::SegmentCheckpoint cp;
            cp.timing = build_timing(j);
            for (const auto &rec : runs[j].flows) {
                if (rec.kind != FlowKind::Enum)
                    continue;
                switch (rec.cause) {
                  case DeathCause::Deactivated: ++cp.deactivated; break;
                  case DeathCause::Converged: ++cp.converged; break;
                  case DeathCause::RanToEnd: ++cp.ranToEnd; break;
                }
            }
            for (const auto t : truths[j].pathTrue)
                cp.truePaths += t;
            cp.recovered = seg_failed[j];
            frontier.segments.push_back(std::move(cp));
            const Status saved = exec::saveCheckpoint(
                options.checkpointPath, frontier);
            if (!saved.ok())
                warn("checkpointing degraded: ", saved.message());
        }

        if (options.stopAfterSegment >= 0 &&
            j == static_cast<std::uint64_t>(options.stopAfterSegment)) {
            // Simulated kill for crash/resume tests: stop mid-chain
            // with the checkpoint (if any) on disk. Stopping after the
            // last segment is allowed too — it leaves a fully-complete
            // frontier (nextSegment == segs.size()) whose resume is a
            // pure compose-from-checkpoint run.
            if (sink)
                sink->end();
            result.status = Status::error(
                ErrorCode::Cancelled, "run stopped after segment ", j,
                " (stop-after-segment)",
                checkpointing ? "; checkpoint saved" : "");
            finish_attrib();
            recordRunMetrics(result);
            return result;
        }
    }
    // Pipeline census: wall-clock of the execute+compose region and
    // how much of it the composer spent blocked on segment handoffs.
    // Diagnostics only — reports and modeled metrics never depend on
    // these numbers.
    result.pipelineWallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - region_t0)
            .count();
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

    std::uint64_t pap_entries = base_entries;
    result.reports = base_reports;
    for (std::size_t j = first_segment; j < segs.size(); ++j) {
        pap_entries += truths[j].totalEntries;
        result.reports.insert(result.reports.end(),
                              truths[j].trueReports.begin(),
                              truths[j].trueReports.end());
    }
    sortAndDedupReports(result.reports);
    result.papReportEvents = pap_entries;
    if (sink)
        sink->end({{"entries", static_cast<double>(pap_entries)},
                   {"true_reports",
                    static_cast<double>(result.reports.size())}});

    // --- Oracle join ---------------------------------------------------
    // Everything below compares against or scales by the sequential
    // execution.
    await_oracle();
    if (!result.status.ok()) {
        finish_attrib();
        recordRunMetrics(result);
        return result;
    }
    result.transitionRatio =
        seq.matches ? static_cast<double>(flow_transitions) /
                          static_cast<double>(seq.matches)
                    : 1.0;
    result.flowTransitions = flow_transitions;
    result.seqTransitions = seq.matches;
    result.reportInflation =
        result.seqReportEvents
            ? static_cast<double>(pap_entries) /
                  static_cast<double>(result.seqReportEvents)
            : (pap_entries ? static_cast<double>(pap_entries) : 1.0);

    // --- Verification ------------------------------------------------
    bool diverged = false;
    if (options.verifyAgainstSequential) {
        PAP_TRACE_SCOPE("pap.verify");
        obs::AttribLedger::Scope verify_scope(&ledger, "verify");
        if (result.reports == seq.reports) {
            result.verified = true;
        } else {
            // Divergence is either an injected fault or a PAPsim bug;
            // either way the sequential oracle repairs the result
            // (Section 3.4: the golden execution is always available).
            diverged = true;
            obs::metrics().add("runner.verification_divergence");
            warn("composed parallel reports diverge from the "
                 "sequential execution for '",
                 nfa.name(), "' (", result.reports.size(),
                 " composed vs ", seq.reports.size(),
                 " sequential); recovering the golden result");
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
        }
    }

    // --- Timeline -----------------------------------------------------
    if (sink)
        sink->begin("pap.timeline");
    const auto timeline_t0 = std::chrono::steady_clock::now();
    // Resumed segments replay their checkpointed timing records, so a
    // killed-and-resumed run reproduces the same per-figure numbers.
    std::vector<SegmentTimingInput> timing_in(segs.size());
    for (std::size_t j = 0; j < segs.size(); ++j)
        timing_in[j] = j < first_segment ? frontier.segments[j].timing
                                         : build_timing(j);
    const TimelineResult timeline =
        simulateTimeline(timing_in, result.seqReportEvents, input.size(),
                         options, config.timing);
    result.papCycles = timeline.papCycles;
    result.baselineCycles = timeline.baselineCycles;
    result.speedup = timeline.speedup;
    result.goldenCapped = timeline.goldenCapped;
    result.avgActiveFlows = timeline.avgActiveFlows;
    // Live-cache census (Evict mode; all zero under Batch). The
    // modeled re-upload stall is worker-side device time that
    // overlaps the host wall clock, so it is charged to an aux
    // attribution bucket at the AP's symbol-cycle rate.
    result.svcEvictions = timeline.svcCounters.get("svc.evictions");
    result.svcReuploads = timeline.svcCounters.get("svc.reuploads");
    result.svcLoadHits = timeline.svcCounters.get("svc.load_hits");
    result.svcLoadMisses = timeline.svcCounters.get("svc.load_misses");
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
    if (diverged) {
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
    // Per-segment diagnostics (resumed segments from the checkpoint).
    result.segments.resize(segs.size());
    for (std::size_t j = 0; j < segs.size(); ++j) {
        auto &diag = result.segments[j];
        diag.begin = segs[j].begin;
        diag.length = segs[j].length();
        diag.flows = static_cast<std::uint32_t>(plans[j]->flows.size());
        diag.totalPaths =
            static_cast<std::uint32_t>(plans[j]->paths.size());
        if (j < first_segment) {
            const auto &cp = frontier.segments[j];
            diag.deactivated = cp.deactivated;
            diag.converged = cp.converged;
            diag.ranToEnd = cp.ranToEnd;
            diag.truePaths = cp.truePaths;
            diag.entries = cp.timing.totalEntries;
        } else {
            for (const auto t : truths[j].pathTrue)
                diag.truePaths += t;
            for (const auto &rec : runs[j].flows) {
                if (rec.kind != FlowKind::Enum)
                    continue;
                switch (rec.cause) {
                  case DeathCause::Deactivated: ++diag.deactivated; break;
                  case DeathCause::Converged: ++diag.converged; break;
                  case DeathCause::RanToEnd: ++diag.ranToEnd; break;
                }
            }
            diag.entries = truths[j].totalEntries;
        }
        diag.tDone = timeline.tDone[j];
        diag.tResolve = timeline.tResolve[j];
    }

    result.contextSwitches =
        options.contextSwitchCycles
            ? timeline.switchCycles / options.contextSwitchCycles
            : 0;
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
    ledger.chargeWall("timeline", msSince(timeline_t0));
    if (sink)
        sink->end({{"pap_cycles",
                    static_cast<double>(result.papCycles)},
                   {"speedup", result.speedup}});

    // The run completed; its checkpoint would only confuse a rerun.
    if (checkpointing) {
        obs::AttribLedger::Scope cpio(&ledger, "checkpoint.io");
        exec::removeCheckpoint(options.checkpointPath);
    }

    // Datapath intensity: estimated bytes the engines touched per
    // flow-symbol executed this run (resumed segments excluded from
    // both numerator and denominator).
    const std::uint64_t engine_symbols =
        result.flowSymbolCycles - base_flow_symbols;
    result.engineBytesPerSymbol =
        engine_symbols
            ? static_cast<double>(result.engineBytesTouched) /
                  static_cast<double>(engine_symbols)
            : 0.0;

    finish_attrib();
    recordRunMetrics(result);
    traceSimulatedTimeline(result);
    return result;
}

} // namespace pap
