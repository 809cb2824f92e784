/**
 * @file
 * Refcounted ruleset registry with atomic hot-swap for the serve
 * daemon. A CompiledRuleset bundles everything a stream needs to run
 * PAP composition against one automaton — the prepared automaton
 * (compiled NFA, connected components, Active State Group), its
 * structural digest, and the range profile that guides
 * chunk-boundary placement — built once at install time and shared
 * immutably by every session bound to it, plus the flow-plan table
 * its chunks fill on first use.
 *
 * Hot-swap protocol: install() compiles the new automaton *outside*
 * the registry lock, then publishes it as the current generation.
 * Sessions opened afterwards bind the new ruleset; sessions already
 * streaming keep their shared_ptr and finish on the generation they
 * started with — a stream never observes a ruleset change mid-flight.
 * The old generation is freed automatically when its last session
 * releases it (shared_ptr refcount); liveGenerations() exposes how
 * many distinct generations still have holders so tests and the STATS
 * verb can observe the reclaim.
 */

#ifndef PAP_SERVE_RULESET_REGISTRY_H
#define PAP_SERVE_RULESET_REGISTRY_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "nfa/nfa.h"
#include "pap/flow_plan.h"
#include "pap/options.h"
#include "pap/prepared.h"

namespace pap {
namespace serve {

/** One immutable, shareable compilation of a ruleset automaton. */
struct CompiledRuleset
{
    /** Copy and prepare @p nfa (finalized); plans use the merge flags
        of @p options. */
    CompiledRuleset(const Nfa &nfa, const PapOptions &options);

    CompiledRuleset(const CompiledRuleset &) = delete;
    CompiledRuleset &operator=(const CompiledRuleset &) = delete;

    /** Monotone install counter; 1 is the ruleset the daemon booted with. */
    std::uint64_t generation = 0;
    /** Owned copy of the automaton (sessions outlive the caller's). */
    const Nfa nfa;
    /** Compiled form, components and ASG the chunks run on. */
    const PreparedAutomaton prepared;
    /** automatonDigest(nfa): what every checkpoint identity of this
        ruleset's sessions is built on. */
    const std::uint64_t digest;
    /** Per-symbol range sizes: the chunker prefers cutting after the
        symbol with the smallest range (fewest enumeration flows). */
    const std::array<std::uint32_t, kAlphabetSize> rangeSizes;
    /** Flow plans by chunk-boundary symbol, built on first use and
        shared by every chunk of every session bound to this ruleset. */
    mutable FlowPlanTable plans;
};

/** Thread-safe holder of the current ruleset generation. */
class RulesetRegistry
{
  public:
    /** Rulesets whose flow plans use the merge flags of @p options. */
    explicit RulesetRegistry(const PapOptions &options) : options_(options)
    {
    }

    /**
     * Compile @p nfa (which must be finalized) and publish it as the
     * new current generation. Returns the installed ruleset; existing
     * holders of older generations are unaffected.
     */
    Result<std::shared_ptr<const CompiledRuleset>> install(const Nfa &nfa);

    /** The current generation's ruleset (null before first install). */
    std::shared_ptr<const CompiledRuleset> current() const;

    /** Generation number of current() (0 before first install). */
    std::uint64_t generation() const;

    /**
     * Distinct generations that still have live holders (including
     * the current one). Pruned lazily; a swapped-out generation drops
     * off once its last session finishes.
     */
    std::size_t liveGenerations() const;

    /**
     * Continue the generation sequence at @p next (used by cold-start
     * recovery so generations stay monotone across daemon restarts —
     * a checkpoint's identity must never alias a post-swap ruleset).
     * Only meaningful before the first install; ignored once a
     * generation has been published or when @p next would move the
     * counter backwards.
     */
    void setNextGeneration(std::uint64_t next);

  private:
    const PapOptions options_;
    mutable std::mutex mutex_;
    std::shared_ptr<const CompiledRuleset> current_;
    std::uint64_t nextGeneration_ = 1;
    mutable std::vector<std::weak_ptr<const CompiledRuleset>> live_;
};

} // namespace serve
} // namespace pap

#endif // PAP_SERVE_RULESET_REGISTRY_H
