/**
 * @file
 * Construction of enumeration paths and their packing into AP flows
 * for one segment boundary (Sections 3.2 and 3.3 of the paper).
 *
 * Pipeline: the range of the boundary symbol gives the candidate start
 * states; Active State Group states are stripped (their activity runs
 * in a dedicated always-true flow); one path is built per common
 * parent (all successors of one matched parent activate together);
 * paths from different connected components are packed into the same
 * flow ("vertical lines" of Figure 4), with at most one path per
 * component per flow so results remain separable by component masks.
 */

#ifndef PAP_PAP_FLOW_PLAN_H
#define PAP_PAP_FLOW_PLAN_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"
#include "pap/options.h"
#include "pap/prepared.h"

namespace pap {

/** One enumeration path: a set of candidate start states. */
struct EnumPath
{
    /**
     * Parent whose successors form this path, or kInvalidState for a
     * single-state path (parent merging disabled).
     */
    StateId parent = kInvalidState;
    /** Connected component every start state belongs to. */
    ComponentId cc = kInvalidComponent;
    /** Sorted candidate start states (ASG states stripped). */
    std::vector<StateId> startStates;
};

/** One flow: at most one path per connected component. */
struct FlowSpec
{
    FlowId id = kInvalidFlow;
    /** Indices into FlowPlan::paths. */
    std::vector<std::uint32_t> pathIdx;
    /** Union of the member paths' start states (the flow's seed). */
    std::vector<StateId> seed;
};

/** The flow layout for one segment plus the Figure-9 statistics. */
struct FlowPlan
{
    std::vector<EnumPath> paths;
    std::vector<FlowSpec> flows;
    /** Enumeration flows before any merging: |Range(s)| \ ASG. */
    std::uint32_t flowsInRange = 0;
    /** After connected-component merging of per-state paths. */
    std::uint32_t flowsAfterCc = 0;
    /** After common-parent merging (== flows.size()). */
    std::uint32_t flowsAfterParent = 0;
    /** Boundary symbol the plan was built for. */
    Symbol boundarySymbol = 0;
};

/**
 * Build the flow plan for a segment whose predecessor ends with
 * @p boundary. @p asg_states must be sorted (from alwaysActiveStates).
 */
FlowPlan buildFlowPlan(const Nfa &nfa, const Components &comps,
                       const std::vector<StateId> &asg_states,
                       Symbol boundary, const PapOptions &options);

/**
 * One flow plan per boundary symbol, built by buildFlowPlan on first
 * use and shared by every segment (or serve chunk) cut after that
 * symbol. A plan depends only on the automaton, its analysis, the
 * merge flags and the boundary symbol, and range-guided partitioning
 * cuts almost every segment after the same symbol, so a run needs a
 * handful of plans rather than one per segment. A table is bound to
 * one prepared automaton and one set of merge flags, so get() takes
 * the symbol alone.
 *
 * Thread-safe: plans are built under the table's lock, so concurrent
 * first uses of a symbol build it exactly once. Returned references
 * stay valid for the table's lifetime.
 */
class FlowPlanTable
{
  public:
    /**
     * Plans of @p automaton (which must outlive the table) under the
     * merge flags of @p options. @p built_counter is the metrics
     * counter bumped per plan built.
     */
    FlowPlanTable(const PreparedAutomaton &automaton,
                  const PapOptions &options, const char *built_counter)
        : automaton_(automaton), options_(options),
          builtCounter_(built_counter)
    {
    }

    FlowPlanTable(const FlowPlanTable &) = delete;
    FlowPlanTable &operator=(const FlowPlanTable &) = delete;

    /** The plan for @p boundary, built now if this is its first use. */
    const FlowPlan &get(Symbol boundary);

    /** Plans built so far: the distinct boundary symbols looked up. */
    std::size_t built() const;

  private:
    const PreparedAutomaton &automaton_;
    const PapOptions options_;
    const char *const builtCounter_;
    mutable std::mutex mutex_;
    std::array<std::unique_ptr<const FlowPlan>, kAlphabetSize> plans_;
    std::size_t built_ = 0;
};

} // namespace pap

#endif // PAP_PAP_FLOW_PLAN_H
