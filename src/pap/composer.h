/**
 * @file
 * Host-side composition of input partitions (Section 3.4): once the
 * previous segment's true final active set T is known, an enumeration
 * path is true iff all of its candidate start states are in T (a
 * matched parent activates all of its successors together, so true
 * paths cover T exactly). Reports are filtered per (flow, connected
 * component) — the flow id comes from the output-buffer entry and the
 * component mask identifies the owning path — then deduplicated, and
 * the segment's own true final active set is assembled for the next
 * segment in the chain.
 *
 * runPap and serve both drive the chain through composeStep() and
 * foldSegment() below, each over one exec::CheckpointFrontier: the
 * step judges a segment against the frontier, the fold advances it.
 */

#ifndef PAP_PAP_COMPOSER_H
#define PAP_PAP_COMPOSER_H

#include <cstdint>
#include <vector>

#include "engine/compiled_nfa.h"
#include "nfa/analysis.h"
#include "pap/exec/checkpoint.h"
#include "pap/flow_plan.h"
#include "pap/segment_sim.h"

namespace pap {

/** Composition result for one segment. */
struct SegmentTruth
{
    /** Truth of each enumeration path (indexed like FlowPlan::paths). */
    std::vector<std::uint8_t> pathTrue;
    /** Per enumeration flow: true iff it carries at least one true path. */
    std::vector<std::uint8_t> flowTrue;
    /** True final active set: the T of the next segment (sorted). */
    std::vector<StateId> finalActive;
    /** True report events (filtered, deduplicated, absolute offsets). */
    std::vector<ReportEvent> trueReports;
    /** All output-buffer entries the segment produced (incl. false). */
    std::uint64_t totalEntries = 0;
    /** Entries filtered out as false-path artifacts. */
    std::uint64_t falseEntries = 0;
    /** Enumeration flows still live when the segment finished. */
    std::uint32_t aliveEnumFlowsAtEnd = 0;
};

/** Compose the first (golden) segment: everything is true. */
SegmentTruth composeGolden(const SegmentRun &run);

/**
 * Compose a later segment given the previous segment's true final
 * active set @p prev_true (sorted). @p cnfa is needed to treat
 * AllInput start states as implicitly always present in T.
 */
SegmentTruth composeEnum(const CompiledNfa &cnfa, const Components &comps,
                         const FlowPlan &plan, const SegmentRun &run,
                         const std::vector<StateId> &prev_true);

/** One segment as the compose step and the fold see it. */
struct ComposeInput
{
    /** Enumeration plan; null for a golden segment. */
    const FlowPlan *plan = nullptr;
    /** The segment's input slice, which recovery recomputes. */
    const Symbol *data = nullptr;
    std::uint64_t begin = 0;
    std::uint64_t length = 0;
    /** Every execution attempt failed; counted in segmentsRecovered. */
    bool failed = false;
    /** Never executed: serve's continuation of a resumed stream. */
    bool continuation = false;
    /** Execution needed more than one attempt. */
    bool retried = false;
    /** The predecessor's FIV download was dropped (injected fault):
        enumeration is judged against an empty T. */
    bool truthLost = false;

    /** Recomputed from the frontier by the per-segment oracle. */
    bool recover() const { return failed || continuation; }
};

/**
 * The compose step: the truth of segment @p seg, the one @p frontier
 * expects next. A segment to recover is first recomputed by the
 * oracle from the frontier's final active set (the initial active set
 * at segment 0), which replaces @p run, and composes as golden; so
 * does an executed golden segment. Every other segment is judged
 * against the frontier's final active set.
 */
SegmentTruth composeStep(const CompiledNfa &cnfa, const Components &comps,
                         const exec::CheckpointFrontier &frontier,
                         const ComposeInput &seg, SegmentRun &run);

/**
 * The fold: add segment @p seg, its final @p run and its @p truth to
 * @p frontier — the final active set, the true reports and entries,
 * the transition and flow-symbol totals, the retry and recovery
 * census, the segment's checkpoint record — and advance nextSegment.
 */
void foldSegment(exec::CheckpointFrontier &frontier,
                 const ComposeInput &seg, const SegmentRun &run,
                 SegmentTruth &&truth);

} // namespace pap

#endif // PAP_PAP_COMPOSER_H
