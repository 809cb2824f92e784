/**
 * @file
 * The static facts of one automaton, worked out once and shared by
 * every run against it: its compiled form, connected components
 * (Section 3.3.1), Active State Group (Section 3.3.2) and symbol
 * ranges (Section 3.1), and the flow plan of each boundary symbol
 * (Section 3.3). runPap, its sequential oracle, runSpeculative and a
 * serve ruleset all run on one. The plans depend on the merge flags,
 * so they are filled lazily, under a lock, one per merge-flag set and
 * boundary symbol; the structural digest stays per call.
 */

#ifndef PAP_PAP_PREPARED_H
#define PAP_PAP_PREPARED_H

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "engine/compiled_nfa.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"
#include "pap/flow_plan.h"
#include "pap/options.h"

namespace pap {

/**
 * Any number of threads and calls may share one. The source automaton
 * must be finalized and must outlive it.
 */
struct PreparedAutomaton
{
    /** Compile @p nfa, then find its components, ASG and ranges. */
    explicit PreparedAutomaton(const Nfa &nfa);

    PreparedAutomaton(const PreparedAutomaton &) = delete;
    PreparedAutomaton &operator=(const PreparedAutomaton &) = delete;

    /**
     * The flow plan of a segment cut after @p boundary under the merge
     * flags of @p options (enableCcMerging, enableParentMerging,
     * enableAsgMerging), as buildFlowPlan makes it. Each plan is built
     * on its first use, once, under the preparation's lock, and
     * counted in prepared.plans.built. Range-guided partitioning cuts
     * almost every segment after the same symbol, so a preparation
     * holds a handful of plans, not one per segment. The reference
     * stays valid for the preparation's lifetime.
     */
    const FlowPlan &plan(Symbol boundary, const PapOptions &options) const;

    /** The source automaton. */
    const Nfa &nfa;
    /** Compiled form every flow's engine runs. */
    const CompiledNfa cnfa;
    /** Connected components (flow packing and composition masks). */
    const Components comps;
    /** Sorted Active State Group states (alwaysActiveStates). */
    const std::vector<StateId> asg;
    /** Range size of every symbol: the partitioner and serve's
        chunker cut after a small one. */
    const RangeAnalysis ranges;

  private:
    /** Sets of the three merge flags: the high part of a plan's slot. */
    static constexpr std::size_t kMergeFlagSets = 8;

    mutable std::mutex planMutex_;
    /** Slot (merge-flag set * kAlphabetSize + boundary symbol). */
    mutable std::array<std::unique_ptr<const FlowPlan>,
                       kMergeFlagSets * kAlphabetSize>
        plans_;
};

} // namespace pap

#endif // PAP_PAP_PREPARED_H
