/**
 * @file
 * Speculative FSM parallelization — the alternative to enumeration
 * the paper discusses in Section 6 ("we believe this is a promising
 * direction for reducing the number of active flows") and leaves as
 * future work, in the style of Zhao & Shen's principled speculation.
 *
 * Instead of enumerating every candidate start state, each segment
 * *predicts* its start set by warming up on the last W symbols of the
 * preceding segment from the empty configuration. Because NFA
 * activity is union-decomposable, the prediction is always a subset
 * of the true start set: activity born inside the warmup window is
 * predicted exactly; only activity older than the window is missed
 * (long-lived states such as ".*" latches defeat speculation — the
 * exact workloads where the paper's enumeration machinery shines).
 * When the previous segment resolves, the prediction is validated
 * against the true set; on a miss, a patch execution reruns the
 * segment seeded with the missing states, serialized behind the
 * truth chain.
 */

#ifndef PAP_PAP_SPECULATIVE_H
#define PAP_PAP_SPECULATIVE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "engine/report.h"
#include "engine/trace.h"
#include "nfa/nfa.h"
#include "pap/options.h"
#include "pap/prepared.h"

namespace pap {

/** Knobs of the speculative runner. */
struct SpeculationOptions
{
    /** Warmup window: symbols re-executed before each segment. */
    std::uint32_t warmupWindow = 256;
    /** Cap parallel time at the sequential baseline. */
    bool applyGoldenCap = true;
    /** Host cost per output-buffer entry drained. */
    double reportCostCyclesPerEvent = 0.05;
    /** Routing-constraint hint (see PapOptions). */
    std::uint32_t routingMinHalfCores = 1;
    /**
     * Host threads for the speculative phase (0 = one per hardware
     * thread). Results are identical for every thread count.
     */
    std::uint32_t threads = 1;
};

/** Outcome of a speculative parallel run. */
struct SpeculationResult
{
    std::string name;
    std::uint32_t numSegments = 1;
    std::uint32_t idealSpeedup = 1;
    /** Fraction of segments whose prediction was exact. */
    double accuracy = 1.0;
    double speedup = 1.0;
    Cycles papCycles = 0;
    Cycles baselineCycles = 0;
    bool goldenCapped = false;
    /** Composed (and verified) report events. */
    std::vector<ReportEvent> reports;
    bool verified = false;
    /**
     * True when the composed reports diverged from the sequential
     * oracle and were repaired from it (a PAPsim bug, but never a
     * wrong answer for the caller).
     */
    bool recovered = false;
    /** Host threads the speculative phase ran on. */
    std::uint32_t threadsUsed = 1;
};

/**
 * Run the speculative parallelization of @p automaton over @p input on
 * a simulated @p config board. A divergence from the sequential
 * execution is repaired from it (result.recovered).
 */
SpeculationResult runSpeculative(const PreparedAutomaton &automaton,
                                 const InputTrace &input,
                                 const ApConfig &config,
                                 const SpeculationOptions &options = {});

/** runSpeculative on PreparedAutomaton(@p nfa). */
SpeculationResult runSpeculative(const Nfa &nfa, const InputTrace &input,
                                 const ApConfig &config,
                                 const SpeculationOptions &options = {});

} // namespace pap

#endif // PAP_PAP_SPECULATIVE_H
