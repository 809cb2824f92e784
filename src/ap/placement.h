/**
 * @file
 * Placement of an automaton onto AP half-cores. Because the routing
 * matrix cannot cross half-cores, every connected component must fit
 * inside one half-core; components are bin-packed (first-fit
 * decreasing) to find the half-core footprint of one FSM copy, which
 * in turn determines how many input segments a board can run in
 * parallel (Table 1 of the paper).
 */

#ifndef PAP_AP_PLACEMENT_H
#define PAP_AP_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "ap/ap_config.h"
#include "common/error.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"

namespace pap {

/** Result of placing one FSM copy. */
struct Placement
{
    /** Half-cores one copy of the FSM occupies. */
    std::uint32_t halfCoresPerCopy = 0;
    /** STEs used in each occupied half-core. */
    std::vector<std::uint32_t> stesPerHalfCore;
    /** Half-core index assigned to each connected component. */
    std::vector<std::uint32_t> halfCoreOfComponent;
    /** Reporting states per occupied half-core (capacity check). */
    std::vector<std::uint32_t> reportStatesPerHalfCore;

    /**
     * Number of input segments (FSM copies) that fit on @p config;
     * each copy needs halfCoresPerCopy half-cores.
     */
    std::uint32_t inputSegments(const ApConfig &config) const;
};

/**
 * Pack the components of @p nfa into half-cores. CapacityExceeded if
 * a single component exceeds a half-core, or one copy needs more
 * half-cores than the board has.
 *
 * @param min_half_cores lower bound on the footprint. Densely
 *        connected automata (Levenshtein, EntityResolution, ...) are
 *        routed by the AP compiler across multiple dies even when
 *        their raw STE count would fit in fewer (Section 4.1); this
 *        hint models that physical distribution.
 */
Result<Placement> placeAutomaton(const Nfa &nfa, const Components &comps,
                                 const ApConfig &config,
                                 std::uint32_t min_half_cores = 1);

} // namespace pap

#endif // PAP_AP_PLACEMENT_H
