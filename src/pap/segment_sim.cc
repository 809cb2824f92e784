#include "pap/segment_sim.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/fault_injector.h"

namespace pap {

DeathTally
tallyDeaths(const SegmentRun &run)
{
    DeathTally tally;
    for (const auto &rec : run.flows) {
        if (rec.kind != FlowKind::Enum)
            continue;
        switch (rec.cause) {
          case DeathCause::Deactivated: ++tally.deactivated; break;
          case DeathCause::Converged: ++tally.converged; break;
          case DeathCause::RanToEnd: ++tally.ranToEnd; break;
        }
    }
    return tally;
}

Cycles
baselineCycles(std::uint64_t symbols, std::uint64_t entries)
{
    return symbols + static_cast<Cycles>(kReportCostCyclesPerEvent *
                                         static_cast<double>(entries));
}

SequentialResult
runSequential(const CompiledNfa &cnfa, const std::vector<StateId> &initial,
              const Symbol *data, std::uint64_t offset,
              std::uint64_t length, const exec::CancellationToken *cancel)
{
    FunctionalEngine engine(cnfa, /*starts=*/true);
    engine.reset(initial, offset);
    // Chunked so a cancellation or a passed deadline is honored
    // promptly.
    constexpr std::uint64_t kCancelCheckChunk = 4096;
    for (std::uint64_t pos = 0;
         pos < length && !(cancel && cancel->cancelled());
         pos += kCancelCheckChunk)
        engine.run(data + pos, std::min(kCancelCheckChunk, length - pos));

    SequentialResult result;
    result.counters = engine.counters();
    result.finalActive = engine.snapshot();
    result.reports = engine.takeReports();
    result.entries = result.reports.size();
    sortAndDedupReports(result.reports);
    result.cycles = baselineCycles(length, result.entries);
    return result;
}

SegmentRun
runGoldenSegment(const CompiledNfa &cnfa,
                 const std::vector<StateId> &initial, const Symbol *data,
                 std::uint64_t seg_begin, std::uint64_t seg_len,
                 FaultInjector *injector,
                 const exec::CancellationToken *cancel)
{
    PAP_TRACE_SCOPE("segment.golden");
    obs::metrics().add("segment_sim.flows.golden");
    SequentialResult seq =
        runSequential(cnfa, initial, data, seg_begin, seg_len, cancel);

    FlowRecord rec;
    rec.id = 0;
    rec.kind = FlowKind::Golden;
    rec.symbolsProcessed = seg_len;
    rec.cause = DeathCause::RanToEnd;
    rec.finalSnapshot = std::move(seq.finalActive);
    rec.counters = seq.counters;
    // Every output-buffer entry, sorted: a start-enabled run never
    // emits one (offset, state) twice, so deduplication dropped none.
    rec.reports = std::move(seq.reports);
    if (injector)
        injector->onReportDrain(rec.reports, seg_begin);
    SegmentRun run;
    run.segBegin = seg_begin;
    run.segLen = seg_len;
    run.flows.push_back(std::move(rec));
    return run;
}

namespace {

/**
 * Execution state for one flow during the lockstep TDM loop. The flow
 * holds an engine only while it lives: built at its first step, freed
 * by retire(). The engine lives on the heap, so the plan's dead and
 * not-yet-stepped flows cost a pointer each, not an engine.
 */
struct LiveFlow
{
    LiveFlow(const std::vector<StateId> &seed, bool starts)
        : seed(&seed), starts(starts)
    {
    }

    /**
     * Stop the flow: record why and where, move the engine's counters
     * and reports (and, for a flow that ran to the end, its final
     * active set) into the record, and free the engine.
     */
    void
    retire(DeathCause cause, std::uint64_t symbols)
    {
        alive = false;
        record.cause = cause;
        record.symbolsProcessed = symbols;
        if (cause == DeathCause::RanToEnd)
            record.finalSnapshot = engine->snapshot();
        record.counters = engine->counters();
        record.reports = engine->takeReports();
        engine.reset();
    }

    /** The engine's initial active set (owned by the plan or caller). */
    const std::vector<StateId> *seed;
    bool starts;
    std::unique_ptr<FunctionalEngine> engine;
    FlowRecord record;
    bool alive = true;
};

/**
 * Symbols between the extra deactivation checks an enumeration flow
 * gets before its first TDM step completes (Section 3.3.4).
 */
constexpr std::uint64_t kEarlyCheckGranularity = 16;

/**
 * TDM steps between dynamic convergence checks (Section 3.3.3); the
 * timeline charges them nothing, as the SVC comparator overlaps input.
 */
constexpr std::uint64_t kConvergenceCheckPeriod = 10;

} // namespace

SegmentRun
runEnumSegment(const CompiledNfa &cnfa, const FlowPlan &plan,
               const std::vector<StateId> &asg_seed, const Symbol *data,
               std::uint64_t seg_begin, std::uint64_t seg_len,
               const PapOptions &options, EngineScratch &scratch,
               const exec::CancellationToken *cancel)
{
    PAP_TRACE_SCOPE("segment.enumerate");
    FaultInjector *injector = options.faultInjector;
    SegmentRun run;
    run.segBegin = seg_begin;
    run.segLen = seg_len;

    std::vector<LiveFlow> live;
    live.reserve(plan.flows.size() + 1);

    // The ASG flow carries all spontaneous (start-state) activity and
    // the always-active states; it is always a true flow.
    if (!asg_seed.empty()) {
        LiveFlow &lf = live.emplace_back(asg_seed, /*starts=*/true);
        lf.record.id = static_cast<FlowId>(plan.flows.size());
        lf.record.kind = FlowKind::Asg;
    }

    for (const auto &spec : plan.flows) {
        LiveFlow &lf = live.emplace_back(spec.seed, /*starts=*/false);
        lf.record.id = spec.id;
        lf.record.kind = FlowKind::Enum;
    }

    // A flow's engine, built and seeded on its first step.
    const auto engine_of = [&](LiveFlow &lf) -> FunctionalEngine & {
        if (!lf.engine) {
            lf.engine = std::make_unique<FunctionalEngine>(cnfa, lf.starts,
                                                           &scratch);
            lf.engine->reset(*lf.seed, seg_begin);
        }
        return *lf.engine;
    };

    const std::uint64_t quantum = options.tdmQuantum;

    std::uint64_t processed = 0;
    std::uint64_t round = 0;
    while (processed < seg_len) {
        if (cancel && cancel->cancelled())
            break; // partial run; the caller discards it
        const std::uint64_t round_end =
            std::min(processed + quantum, seg_len);

        for (auto &lf : live) {
            if (!lf.alive)
                continue;
            FunctionalEngine &engine = engine_of(lf);
            const bool is_enum = lf.record.kind == FlowKind::Enum;

            if (is_enum && engine.dead()) {
                // Already empty; it produces nothing more. Charge it
                // only up to the boundary where the check would fire.
                if (options.enableDeactivationChecks) {
                    lf.retire(DeathCause::Deactivated, processed);
                    continue;
                }
            }

            std::uint64_t pos = processed;
            if (is_enum && round == 0 &&
                options.enableDeactivationChecks) {
                // Extra fine-grained deactivation checks before the
                // first TDM step completes.
                while (pos < round_end) {
                    const std::uint64_t chunk_end =
                        std::min(pos + kEarlyCheckGranularity, round_end);
                    engine.run(data + pos, chunk_end - pos);
                    pos = chunk_end;
                    if (engine.dead()) {
                        lf.retire(DeathCause::Deactivated, pos);
                        break;
                    }
                }
                continue;
            }

            // A dead enumeration engine can never revive (it has no
            // start machinery), so skip the no-op stepping; ASG and
            // golden flows always run because AllInput starts re-enable
            // states every cycle.
            if (!is_enum || !engine.dead())
                engine.run(data + pos, round_end - pos);

            if (is_enum && options.enableDeactivationChecks &&
                engine.dead()) {
                // Deactivation check at the context switch.
                lf.retire(DeathCause::Deactivated, round_end);
            }
        }

        processed = round_end;
        ++round;

        // Injected SVC faults strike at the context switch, when the
        // state vector passes through the cache: a corrupt entry
        // reloads with one state flipped, an evicted entry reloads
        // all-zero.
        if (injector) {
            for (auto &lf : live) {
                if (!lf.alive)
                    continue;
                switch (injector->onContextSwitch(lf.record.id,
                                                 seg_begin)) {
                  case FaultInjector::SvAction::Corrupt: {
                    std::vector<StateId> v = lf.engine->snapshot();
                    injector->corruptVector(
                        v, static_cast<StateId>(cnfa.size()),
                        seg_begin);
                    lf.engine->overwriteActive(v);
                    break;
                  }
                  case FaultInjector::SvAction::Evict:
                    lf.engine->overwriteActive({});
                    break;
                  case FaultInjector::SvAction::None:
                    break;
                }
            }
        }

        // Dynamic convergence checks every N TDM steps.
        if (options.enableConvergenceChecks &&
            round % kConvergenceCheckPeriod == 0 &&
            processed < seg_len) {
            std::unordered_map<std::uint64_t, std::vector<std::size_t>>
                buckets;
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (!live[i].alive ||
                    live[i].record.kind != FlowKind::Enum)
                    continue;
                buckets[live[i].engine->stateHash()].push_back(i);
            }
            for (auto &[hash, members] : buckets) {
                if (members.size() < 2)
                    continue;
                // Lowest index survives; verify equality exactly (the
                // SVC comparator is bitwise, not a hash).
                const FunctionalEngine &winner =
                    *live[members.front()].engine;
                for (std::size_t m = 1; m < members.size(); ++m) {
                    auto &loser = live[members[m]];
                    if (!loser.engine->sameActiveSet(winner))
                        continue;
                    loser.record.mergedInto =
                        live[members.front()].record.id;
                    loser.record.mergeSymbol = processed;
                    loser.retire(DeathCause::Converged, processed);
                }
            }
        }
    }

    // Finalize records; report drains run in flow order, as the
    // injector's per-segment stream expects.
    for (auto &lf : live) {
        if (lf.alive) {
            engine_of(lf);
            lf.retire(DeathCause::RanToEnd, seg_len);
        }
        if (injector)
            injector->onReportDrain(lf.record.reports, seg_begin);
        run.flows.push_back(std::move(lf.record));
    }

    auto &m = obs::metrics();
    m.add("segment_sim.flows.enum", plan.flows.size());
    if (!asg_seed.empty())
        m.add("segment_sim.flows.asg");
    const DeathTally deaths = tallyDeaths(run);
    if (deaths.deactivated)
        m.add("segment_sim.deactivations", deaths.deactivated);
    if (deaths.converged)
        m.add("segment_sim.convergence_merges", deaths.converged);
    // One registry lock per segment, not two per flow.
    std::vector<double> flow_symbols, merge_symbols;
    flow_symbols.reserve(plan.flows.size());
    for (const auto &rec : run.flows) {
        if (rec.kind != FlowKind::Enum)
            continue;
        if (rec.cause == DeathCause::Converged)
            merge_symbols.push_back(static_cast<double>(rec.mergeSymbol));
        flow_symbols.push_back(static_cast<double>(rec.symbolsProcessed));
    }
    m.observeAll("segment_sim.flow_symbols", flow_symbols);
    m.observeAll("segment_sim.merge_symbol", merge_symbols);
    return run;
}

SegmentRun
executeSegment(const PreparedAutomaton &automaton, const FlowPlan *plan,
               const Symbol *data, std::uint64_t seg_begin,
               std::uint64_t seg_len, const PapOptions &options,
               const exec::CancellationToken *cancel)
{
    const CompiledNfa &cnfa = automaton.cnfa;
    if (!plan)
        return runGoldenSegment(cnfa, cnfa.initialActive(), data,
                                seg_begin, seg_len, options.faultInjector,
                                cancel);
    EngineScratch scratch(cnfa.size());
    return runEnumSegment(cnfa, *plan, automaton.asg, data, seg_begin,
                          seg_len, options, scratch, cancel);
}

} // namespace pap
