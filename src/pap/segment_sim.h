/**
 * @file
 * Functional execution of one input segment's flows, time-division
 * multiplexed exactly as the PAP architecture does it (Section 3.2):
 * every flow advances one TDM quantum per step; deactivation checks
 * run at context switches (plus finer-grained checks before the first
 * TDM step completes, Section 3.3.4); convergence checks run every N
 * TDM steps and merge flows whose state vectors are bitwise equal
 * (Section 3.3.3). executeSegment() on top is the one segment
 * executor that runPap and serve share: golden/enumeration dispatch.
 * runSequential is the golden execution (Section 3.4) of any input
 * slice: the golden flow, the oracle continuation of a failed segment
 * (started from the true active set entering it), runPap's golden
 * checks and the extensions' start-enabled runs are all that one run.
 * SVC capacity never splits a segment: every flow of the plan runs,
 * and the timeline alone models residency.
 */

#ifndef PAP_PAP_SEGMENT_SIM_H
#define PAP_PAP_SEGMENT_SIM_H

#include <cstdint>
#include <vector>

#include "ap/ap_config.h"
#include "engine/functional_engine.h"
#include "engine/report.h"
#include "pap/exec/cancellation.h"
#include "pap/flow_plan.h"
#include "pap/options.h"
#include "pap/prepared.h"

namespace pap {

/** Result of a plain sequential AP execution (the baseline). */
struct SequentialResult
{
    /** Sorted, deduplicated report events. */
    std::vector<ReportEvent> reports;
    /** Baseline cycles: symbols plus host report processing. */
    Cycles cycles = 0;
    /** The engine's counters (matches: state transitions). */
    EngineCounters counters;
    /** Output-buffer entries, before deduplication. */
    std::uint64_t entries = 0;
    /** Active set after the last symbol, sorted. */
    std::vector<StateId> finalActive;
};

/**
 * Baseline cycles of a sequential run over @p symbols symbols: one per
 * symbol plus the host's report processing, charged once over all
 * @p entries output-buffer entries.
 */
Cycles baselineCycles(std::uint64_t symbols, std::uint64_t entries,
                      const PapOptions &options);

/**
 * Run @p cnfa sequentially, start machinery live, over the @p length
 * symbols at @p data, the first of which sits at input offset
 * @p offset, from the active set @p initial. @p cancel, when non-null,
 * is polled every 4,096 symbols; a cancelled run returns early with a
 * partial result the caller must discard.
 */
SequentialResult runSequential(const CompiledNfa &cnfa,
                               const std::vector<StateId> &initial,
                               const Symbol *data, std::uint64_t offset,
                               std::uint64_t length,
                               const PapOptions &options = {},
                               const exec::CancellationToken *cancel =
                                   nullptr);

/** Role of a flow within a segment. */
enum class FlowKind : std::uint8_t
{
    Golden, ///< the true path of the first segment
    Asg,    ///< the always-true Active State Group flow
    Enum    ///< an enumeration flow
};

/** Why a flow stopped processing symbols. */
enum class DeathCause : std::uint8_t
{
    RanToEnd,    ///< processed the whole segment
    Deactivated, ///< state vector became empty (Section 3.3.4)
    Converged    ///< merged into another flow (Section 3.3.3)
};

/** Everything recorded about one flow's execution of a segment. */
struct FlowRecord
{
    /**
     * An enumeration flow's FlowSpec::id, its index in the plan (the
     * composer reads its paths there); the ASG flow's is the plan's
     * flow count, a golden flow's 0.
     */
    FlowId id = kInvalidFlow;
    FlowKind kind = FlowKind::Enum;
    /**
     * Local symbols processed before stopping, rounded up to the
     * check boundary where the stop was detected (what the timing
     * model charges).
     */
    std::uint64_t symbolsProcessed = 0;
    DeathCause cause = DeathCause::RanToEnd;
    /** Winner flow when cause == Converged. */
    FlowId mergedInto = kInvalidFlow;
    /** Local symbol index at which the merge happened. */
    std::uint64_t mergeSymbol = 0;
    /** Sorted active set at segment end (only when RanToEnd). */
    std::vector<StateId> finalSnapshot;
    /** Events this flow's engine emitted (absolute offsets). */
    std::vector<ReportEvent> reports;
    /** Engine counters (transitions for the energy analysis). */
    EngineCounters counters;
};

/** The outcome of simulating one segment. */
struct SegmentRun
{
    std::uint64_t segBegin = 0;
    std::uint64_t segLen = 0;
    std::vector<FlowRecord> flows;
    /** Index of the ASG flow in @c flows, or -1 if absent. */
    int asgIndex = -1;
};

class FaultInjector;

/**
 * How one segment run's enumeration flows stopped (golden and ASG
 * flows always run to the end and are not counted).
 */
struct DeathTally
{
    std::uint32_t deactivated = 0;
    std::uint32_t converged = 0;
    std::uint32_t ranToEnd = 0;
};

/** Tally the death causes of @p run's enumeration flows. */
DeathTally tallyDeaths(const SegmentRun &run);

/**
 * Run a golden flow: runSequential over the segment from @p initial,
 * the true active set entering it, as the segment's one flow. The
 * first segment starts from cnfa.initialActive(); the per-segment
 * oracle continuation (Section 3.4) of a segment whose attempts all
 * failed starts from its predecessor's true final active set.
 * @p injector, when non-null, may drop or truncate the flow's report
 * buffer. @p cancel is as for runSequential; a cancelled run returns
 * early with a partial record the caller must discard.
 */
SegmentRun runGoldenSegment(const CompiledNfa &cnfa,
                            const std::vector<StateId> &initial,
                            const Symbol *data,
                            std::uint64_t seg_begin, std::uint64_t seg_len,
                            FaultInjector *injector = nullptr,
                            const exec::CancellationToken *cancel =
                                nullptr);

/**
 * Run a later segment: the ASG flow (if @p asg_seed is non-empty, with
 * id plan.flows.size()) plus one enumeration flow per FlowSpec of
 * @p plan, multiplexed per @p options. A flow holds its engine only
 * while it lives: the engine is built at the flow's first step and
 * freed when the flow stops. Faults from options.faultInjector are
 * applied at context-switch boundaries and report drains.
 *
 * @p cancel, when non-null, is polled once per TDM round; a cancelled
 * run returns early with a partial record the caller must discard.
 */
SegmentRun runEnumSegment(const CompiledNfa &cnfa,
                          const FlowPlan &plan,
                          const std::vector<StateId> &asg_seed,
                          const Symbol *data, std::uint64_t seg_begin,
                          std::uint64_t seg_len,
                          const PapOptions &options,
                          EngineScratch &scratch,
                          const exec::CancellationToken *cancel =
                              nullptr);

/**
 * Modeled SVC capacity in flow contexts: options.svcCapacity when set,
 * else the device's svcEntriesPerDevice (512 on the D480).
 */
std::uint32_t svcCapacity(const PapOptions &options,
                          const ApConfig &config);

/**
 * Execute one segment of @p automaton on the modeled device: the
 * segment executor under runPap and serve. A null @p plan runs the
 * golden flow from the initial active set (the first segment;
 * options.faultInjector may damage its report drain). Otherwise the
 * ASG flow runs beside all of @p plan's enumeration flows, whatever
 * the SVC capacity: convergence merging sees every flow, and reports
 * are byte-identical across capacities.
 *
 * @p cancel, when non-null, is polled cooperatively; a cancelled
 * execution is partial and the caller must discard it.
 */
SegmentRun executeSegment(const PreparedAutomaton &automaton,
                          const FlowPlan *plan, const Symbol *data,
                          std::uint64_t seg_begin, std::uint64_t seg_len,
                          const PapOptions &options,
                          const exec::CancellationToken *cancel);

} // namespace pap

#endif // PAP_PAP_SEGMENT_SIM_H
