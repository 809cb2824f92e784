/**
 * @file
 * Homogeneous (ANML-style) non-deterministic finite automaton.
 *
 * In the AP's ANML representation each state has valid incoming
 * transitions for exactly one character class, so the state itself can
 * carry the label (Section 2.1 of the paper). Execution semantics:
 *
 *  - a state is *enabled* for the current cycle;
 *  - an enabled state whose label contains the current symbol *matches*,
 *    emits a report if it is a reporting state, and enables all of its
 *    successors for the next cycle;
 *  - `AllInput` start states are additionally enabled on every cycle,
 *    `StartOfData` start states only before the first symbol.
 */

#ifndef PAP_NFA_NFA_H
#define PAP_NFA_NFA_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/charclass.h"
#include "common/types.h"

namespace pap {

/** When a state is spontaneously enabled by the hardware. */
enum class StartType : std::uint8_t {
    None,        ///< only enabled by a matching predecessor
    StartOfData, ///< enabled before the first symbol only
    AllInput     ///< enabled before every symbol (match-anywhere)
};

/** One homogeneous NFA state (one STE once placed on the AP). */
struct NfaState
{
    /** Symbols this state matches (the STE's stored column). */
    CharClass label;
    /** Spontaneous-enable behaviour. */
    StartType start = StartType::None;
    /** True if a match on this state produces an output event. */
    bool reporting = false;
    /** Report code written to the output event buffer. */
    ReportCode reportCode = 0;
    /** Successor states enabled when this state matches. */
    std::vector<StateId> succ;
};

/**
 * A homogeneous NFA. Build with addState/addEdge, then call finalize()
 * once; finalize deduplicates and sorts successor lists and freezes the
 * derived counts. Most analysis and all engines require a finalized NFA.
 */
class Nfa
{
  public:
    Nfa() = default;

    /** Construct with a human-readable name (used in reports). */
    explicit Nfa(std::string name) : nfaName(std::move(name)) {}

    /** Append a state; returns its id. */
    StateId addState(const CharClass &label,
                     StartType start = StartType::None,
                     bool reporting = false, ReportCode code = 0);

    /** Add the edge from -> to. Duplicate edges are removed later. */
    void addEdge(StateId from, StateId to);

    /**
     * Sort and deduplicate all successor lists and compute edge counts.
     * Idempotent; must be called before analysis or execution.
     */
    void finalize();

    /** True once finalize() has run and no mutation happened since. */
    bool finalized() const { return isFinalized; }

    /** Number of states. */
    std::size_t size() const { return states.size(); }

    /** Total number of (deduplicated) edges; requires finalize(). */
    std::size_t edgeCount() const;

    /** Access one state. */
    const NfaState &operator[](StateId id) const { return states[id]; }

    /** Mutable access; clears the finalized flag. */
    NfaState &mutableState(StateId id);

    /** Ids of states with start != None. */
    const std::vector<StateId> &startStates() const;

    /** Ids of reporting states. */
    const std::vector<StateId> &reportingStates() const;

    /** True if @p id has an edge to itself. */
    bool hasSelfLoop(StateId id) const;

    /** Name given at construction. */
    const std::string &name() const { return nfaName; }

    /** Rename (used when generators derive variants). */
    void setName(std::string name) { nfaName = std::move(name); }

    /**
     * Merge another automaton into this one, offsetting its state ids.
     * Returns the id offset applied to @p other's states.
     */
    StateId append(const Nfa &other);

    /** Sanity-check internal invariants; panics on violation. */
    void validate() const;

  private:
    std::string nfaName;
    std::vector<NfaState> states;
    std::vector<StateId> startList;
    std::vector<StateId> reportList;
    std::size_t numEdges = 0;
    bool isFinalized = false;
};

/**
 * Structural digest of @p nfa: a hash over its name, its size and, per
 * state, the four label words, the start kind, the report flag and
 * code, and the successors. Two automata that differ in any of these
 * digest apart (up to hash collisions), however alike their names and
 * sizes. Checkpoint identities are built on it (docs/file-formats.md);
 * the values match the per-state fold serve checkpoints have always
 * carried, so checkpoints and manifests written before the digest
 * existed still resume. One pass over the automaton: compute it once
 * per automaton, not per use.
 */
std::uint64_t automatonDigest(const Nfa &nfa);

} // namespace pap

#endif // PAP_NFA_NFA_H
