/**
 * @file
 * Static analyses over homogeneous NFAs that the PAP parallelization
 * framework relies on: predecessor maps, connected components (Section
 * 3.3.1), per-symbol ranges (Section 3.1), and always-active states
 * (the Active State Group of Section 3.3.2).
 */

#ifndef PAP_NFA_ANALYSIS_H
#define PAP_NFA_ANALYSIS_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "nfa/nfa.h"

namespace pap {

/** Predecessor lists: result[q] = sorted ids of states with an edge to q. */
std::vector<std::vector<StateId>> buildPredecessors(const Nfa &nfa);

/**
 * Connected components of the transition graph viewed as undirected
 * (the paper's disconnected sub-graphs). Patterns sharing no prefix land
 * in different components, which is what makes flow merging profitable.
 */
struct Components
{
    /** Component id per state. */
    std::vector<ComponentId> of;
    /** Number of components. */
    std::uint32_t count = 0;
    /** States per component. */
    std::vector<std::uint32_t> sizes;
};

/** Compute connected components with a union-find pass. */
Components connectedComponents(const Nfa &nfa);

/**
 * Per-symbol range analysis. The range of symbol s is the union of the
 * successors of every state whose label contains s: exactly the states
 * that can be enabled immediately after an input symbol s, excluding
 * spontaneous (start-state) enables. Sizes for all 256 symbols are
 * computed eagerly; the member lists only on demand (they can be large).
 */
class RangeAnalysis
{
  public:
    explicit RangeAnalysis(const Nfa &nfa);

    /** Number of states in the range of @p s. */
    std::uint32_t rangeSize(Symbol s) const { return sizes[s]; }

    /** Materialize the sorted range member list of @p s. */
    std::vector<StateId> computeRange(Symbol s) const;

    /** Smallest range over all symbols. */
    std::uint32_t minRange() const;

    /** Largest range over all symbols. */
    std::uint32_t maxRange() const;

    /** Mean range over all 256 symbols. */
    double avgRange() const;

    /** Symbol with the smallest range (ties: lowest symbol). */
    Symbol minRangeSymbol() const;

  private:
    const Nfa &nfa;
    std::array<std::uint32_t, kAlphabetSize> sizes{};
};

/**
 * States that are provably enabled on every cycle from the first symbol
 * onward: AllInput start states, start states with a full-label self
 * loop, and (transitively) successors of always-active states whose
 * label matches every symbol. These form the Active State Group; their
 * activity belongs to the true path of every input segment.
 */
std::vector<StateId> alwaysActiveStates(const Nfa &nfa);

/**
 * Parent states for enumeration on boundary symbol @p s: every state
 * whose label contains s and that has at least one successor. The
 * common-parent optimization (Section 3.3.2) builds one enumeration
 * path per such parent.
 */
std::vector<StateId> parentsMatching(const Nfa &nfa, Symbol s);

/** Out-degree distribution summary used by workload validation. */
struct DegreeStats
{
    double avgOut = 0.0;
    std::uint32_t maxOut = 0;
    std::uint32_t selfLoops = 0;
};

/** Compute out-degree statistics. */
DegreeStats degreeStats(const Nfa &nfa);

} // namespace pap

#endif // PAP_NFA_ANALYSIS_H
