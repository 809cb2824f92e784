/**
 * @file
 * The static facts of one automaton, worked out once and shared by
 * every run against it: its compiled form, connected components
 * (Section 3.3.1) and Active State Group (Section 3.3.2). runPap, its
 * sequential oracle, runSpeculative and a serve ruleset all run on
 * one. Symbol ranges, flow plans (they depend on the merge flags) and
 * the structural digest stay per call.
 */

#ifndef PAP_PAP_PREPARED_H
#define PAP_PAP_PREPARED_H

#include <vector>

#include "common/types.h"
#include "engine/compiled_nfa.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"

namespace pap {

/**
 * Immutable once built; any number of threads and calls may share
 * it. The source automaton must be finalized and must outlive it.
 */
struct PreparedAutomaton
{
    /** Compile @p nfa, then find its components and its ASG. */
    explicit PreparedAutomaton(const Nfa &nfa);

    PreparedAutomaton(const PreparedAutomaton &) = delete;
    PreparedAutomaton &operator=(const PreparedAutomaton &) = delete;

    /** The source automaton. */
    const Nfa &nfa;
    /** Compiled form every flow's engine runs. */
    const CompiledNfa cnfa;
    /** Connected components (flow packing and composition masks). */
    const Components comps;
    /** Sorted Active State Group states (alwaysActiveStates). */
    const std::vector<StateId> asg;
};

} // namespace pap

#endif // PAP_PAP_PREPARED_H
