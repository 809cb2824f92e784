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
 *
 * Runs do not call buildFlowPlan themselves: they read plans through
 * PreparedAutomaton::plan (pap/prepared.h), which builds each one
 * once per preparation.
 */

#ifndef PAP_PAP_FLOW_PLAN_H
#define PAP_PAP_FLOW_PLAN_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"
#include "pap/options.h"

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
 * Of @p options it reads the three merge flags alone
 * (enableCcMerging, enableParentMerging, enableAsgMerging), which
 * PreparedAutomaton::plan keys its plans by.
 */
FlowPlan buildFlowPlan(const Nfa &nfa, const Components &comps,
                       const std::vector<StateId> &asg_states,
                       Symbol boundary, const PapOptions &options);

} // namespace pap

#endif // PAP_PAP_FLOW_PLAN_H
