#include "pap/composer.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {

SegmentTruth
composeGolden(const SegmentRun &run)
{
    PAP_TRACE_SCOPE("compose.golden");
    PAP_ASSERT(run.flows.size() == 1 &&
                   run.flows.front().kind == FlowKind::Golden,
               "composeGolden expects exactly one golden flow");
    const FlowRecord &rec = run.flows.front();
    SegmentTruth truth;
    truth.finalActive = rec.finalSnapshot;
    truth.trueReports = rec.reports;
    sortAndDedupReports(truth.trueReports);
    truth.totalEntries = rec.reports.size();
    truth.falseEntries = 0;
    truth.aliveEnumFlowsAtEnd = 0;
    return truth;
}

namespace {

/** A flow that joined a record's event stream by converging into it. */
struct Contributor
{
    /** Local symbol index from which the contribution starts. */
    std::uint64_t fromSymbol;
    /** Index of the contributing flow's record in run.flows. */
    std::uint32_t recordIndex;
};

/**
 * A set of component ids over a reused, epoch-stamped array: clear()
 * is O(1), so one instance serves every flow record of a segment.
 */
class ComponentSet
{
  public:
    explicit ComponentSet(std::size_t components) : stamp(components, 0) {}

    void
    clear()
    {
        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
        }
    }

    void insert(ComponentId cc) { stamp[cc] = epoch; }

    bool contains(ComponentId cc) const { return stamp[cc] == epoch; }

  private:
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 1;
};

} // namespace

SegmentTruth
composeEnum(const CompiledNfa &cnfa, const Components &comps,
            const FlowPlan &plan, const SegmentRun &run,
            const std::vector<StateId> &prev_true)
{
    PAP_TRACE_SCOPE("compose.enumerate");
    SegmentTruth truth;

    // Membership mask for T. AllInput starts never appear in engine
    // snapshots (they are implicitly enabled every cycle), so they are
    // treated as always present.
    std::vector<bool> in_t(cnfa.size(), false);
    for (const StateId q : prev_true)
        in_t[q] = true;
    auto in_t_implicit = [&](StateId q) {
        return in_t[q] || cnfa.isAllInputStart(q);
    };

    // 1. Path truth: every candidate start state must be in T.
    truth.pathTrue.assign(plan.paths.size(), 0);
    for (std::size_t i = 0; i < plan.paths.size(); ++i) {
        bool ok = true;
        for (const StateId q : plan.paths[i].startStates) {
            if (!in_t_implicit(q)) {
                ok = false;
                break;
            }
        }
        truth.pathTrue[i] = ok ? 1 : 0;
    }

    truth.flowTrue.assign(plan.flows.size(), 0);
    for (std::size_t f = 0; f < plan.flows.size(); ++f)
        for (const std::uint32_t p : plan.flows[f].pathIdx)
            if (truth.pathTrue[p])
                truth.flowTrue[f] = 1;

    // Record index of each enumeration flow. Flow ids are dense: the
    // plan's flows are 0..F-1 (the ASG flow, F, never merges).
    constexpr std::uint32_t kNoRecord = ~0u;
    std::vector<std::uint32_t> record_of(plan.flows.size(), kNoRecord);
    for (std::uint32_t i = 0; i < run.flows.size(); ++i) {
        const FlowRecord &rec = run.flows[i];
        if (rec.kind != FlowKind::Enum)
            continue;
        PAP_ASSERT(rec.id < plan.flows.size(), "flow ", rec.id,
                   " outside its plan");
        record_of[rec.id] = i;
    }
    auto merge_target = [&](std::uint32_t i) {
        const FlowId into = run.flows[i].mergedInto;
        PAP_ASSERT(into < record_of.size() && record_of[into] != kNoRecord,
                   "dangling merge target");
        return record_of[into];
    };

    // 2. Convergence lineage: every record contributes to its own
    // event stream from symbol 0, and a flow with a true path also to
    // each record down its merge chain, from its landing time there
    // onward. Only merge targets keep a list; a flow without a true
    // path contributes nothing and is not walked.
    std::vector<std::vector<Contributor>> landed(run.flows.size());
    for (std::uint32_t i = 0; i < run.flows.size(); ++i) {
        const FlowRecord &rec = run.flows[i];
        if (rec.kind != FlowKind::Enum || !truth.flowTrue[rec.id])
            continue;
        std::uint32_t node = i;
        std::uint64_t landing = 0;
        while (run.flows[node].cause == DeathCause::Converged) {
            landing = std::max(landing, run.flows[node].mergeSymbol);
            node = merge_target(node);
            landed[node].push_back(Contributor{landing, i});
        }
    }
    for (auto &list : landed)
        std::sort(list.begin(), list.end(),
                  [](const Contributor &a, const Contributor &b) {
                      return a.fromSymbol < b.fromSymbol;
                  });

    // True component set carried by a flow record (its own true paths).
    ComponentSet true_ccs(comps.count);
    auto add_true_ccs_of = [&](const FlowRecord &rec) {
        for (const std::uint32_t p : plan.flows[rec.id].pathIdx)
            if (truth.pathTrue[p])
                true_ccs.insert(plan.paths[p].cc);
    };

    // 3. Filter reports. An event emitted by record r at local time t
    // is true iff some flow whose lineage reached r by time t has a
    // true path for the event state's component.
    for (std::uint32_t i = 0; i < run.flows.size(); ++i) {
        const FlowRecord &rec = run.flows[i];
        truth.totalEntries += rec.reports.size();
        if (rec.kind != FlowKind::Enum) {
            // Golden/ASG flows are true by construction.
            truth.trueReports.insert(truth.trueReports.end(),
                                     rec.reports.begin(),
                                     rec.reports.end());
            continue;
        }
        if (!truth.flowTrue[rec.id] && landed[i].empty()) {
            truth.falseEntries += rec.reports.size();
            continue;
        }
        true_ccs.clear();
        add_true_ccs_of(rec);
        const std::vector<Contributor> &joined = landed[i];
        std::size_t next_joined = 0;
        for (const ReportEvent &e : rec.reports) {
            const std::uint64_t local = e.offset - run.segBegin;
            while (next_joined < joined.size() &&
                   joined[next_joined].fromSymbol <= local) {
                add_true_ccs_of(run.flows[joined[next_joined].recordIndex]);
                ++next_joined;
            }
            if (true_ccs.contains(comps.of[e.state]))
                truth.trueReports.push_back(e);
            else
                ++truth.falseEntries;
        }
    }
    sortAndDedupReports(truth.trueReports);

    // 4. Assemble this segment's true final active set. Resolve each
    // flow with a true path to its surviving record; merged flows
    // share the survivor's final snapshot, separable per component.
    std::vector<bool> t_next(cnfa.size(), false);
    for (std::uint32_t i = 0; i < run.flows.size(); ++i) {
        const FlowRecord &rec = run.flows[i];
        if (rec.kind == FlowKind::Asg) {
            for (const StateId q : rec.finalSnapshot)
                t_next[q] = true;
            continue;
        }
        if (rec.kind != FlowKind::Enum || !truth.flowTrue[rec.id])
            continue;
        true_ccs.clear();
        add_true_ccs_of(rec);
        std::uint32_t survivor = i;
        while (run.flows[survivor].cause == DeathCause::Converged)
            survivor = merge_target(survivor);
        for (const StateId q : run.flows[survivor].finalSnapshot)
            if (true_ccs.contains(comps.of[q]))
                t_next[q] = true;
    }
    for (StateId q = 0; q < cnfa.size(); ++q)
        if (t_next[q])
            truth.finalActive.push_back(q);

    // 5. Live-flow census for the host decode cost model.
    for (const FlowRecord &rec : run.flows)
        if (rec.kind == FlowKind::Enum &&
            rec.cause == DeathCause::RanToEnd)
            ++truth.aliveEnumFlowsAtEnd;

    auto &m = obs::metrics();
    m.add("compose.entries.total", truth.totalEntries);
    m.add("compose.entries.false", truth.falseEntries);
    m.add("compose.reports.true", truth.trueReports.size());
    return truth;
}

SegmentTruth
composeStep(const PreparedAutomaton &automaton,
            const exec::CheckpointFrontier &frontier,
            const ComposeInput &seg, SegmentRun &run)
{
    const CompiledNfa &cnfa = automaton.cnfa;
    if (seg.recover()) {
        // Recompute exactly the segment's slice of input from the
        // frontier. Timing degrades to a single golden-like flow.
        run = runGoldenSegment(cnfa,
                               frontier.nextSegment == 0
                                   ? cnfa.initialActive()
                                   : frontier.finalActive,
                               seg.data, seg.begin, seg.length);
        return composeGolden(run);
    }
    if (!seg.plan)
        return composeGolden(run);
    const std::vector<StateId> no_truth;
    return composeEnum(cnfa, automaton.comps, *seg.plan, run,
                       seg.truthLost ? no_truth : frontier.finalActive);
}

namespace {

/**
 * The checkpoint record of one composed segment: its timing-model
 * input (every flow with its truth, and the entry census) plus the
 * flow-outcome census. Run-wide timing settings (the SVC capacity)
 * are not part of it: the timeline takes them from the run's options.
 * A recovered segment ran no enumeration flows.
 */
exec::SegmentCheckpoint
segmentCheckpoint(const ComposeInput &seg, const SegmentRun &run,
                  const SegmentTruth &truth)
{
    exec::SegmentCheckpoint cp;
    SegmentTimingInput &t = cp.timing;
    t.segLen = run.segLen;
    t.totalEntries = truth.totalEntries;
    t.aliveEnumFlowsAtEnd = truth.aliveEnumFlowsAtEnd;
    t.hasEnumFlows = seg.plan && !seg.plan->flows.empty() && !seg.recover();
    for (const auto &rec : run.flows) {
        FlowTimingInfo info;
        info.kind = rec.kind;
        info.symbolsProcessed = rec.symbolsProcessed;
        info.isTrue = rec.kind != FlowKind::Enum ||
                      (rec.id < truth.flowTrue.size() &&
                       truth.flowTrue[rec.id] != 0);
        t.flows.push_back(info);
    }
    const DeathTally deaths = tallyDeaths(run);
    cp.deactivated = deaths.deactivated;
    cp.converged = deaths.converged;
    cp.ranToEnd = deaths.ranToEnd;
    for (const auto p : truth.pathTrue)
        cp.truePaths += p;
    cp.recovered = seg.recover();
    return cp;
}

} // namespace

void
foldSegment(exec::CheckpointFrontier &frontier, const ComposeInput &seg,
            const SegmentRun &run, SegmentTruth &&truth)
{
    frontier.segments.push_back(segmentCheckpoint(seg, run, truth));
    frontier.finalActive = std::move(truth.finalActive);
    frontier.reports.insert(frontier.reports.end(),
                            truth.trueReports.begin(),
                            truth.trueReports.end());
    frontier.papEntries += truth.totalEntries;
    for (const FlowRecord &rec : run.flows) {
        frontier.flowTransitions += rec.counters.matches;
        frontier.flowSymbolCycles += rec.counters.symbols;
    }
    if (seg.retried)
        ++frontier.segmentsRetried;
    if (seg.failed)
        ++frontier.segmentsRecovered;
    ++frontier.nextSegment;
}

} // namespace pap
