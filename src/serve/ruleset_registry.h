/**
 * @file
 * Refcounted ruleset registry with atomic hot-swap for the serve
 * daemon. A CompiledRuleset bundles everything a stream needs to run
 * PAP composition against one automaton — the prepared automaton
 * (compiled NFA, connected components, Active State Group, the symbol
 * ranges that guide chunk-boundary placement, and the flow plans its
 * chunks fill on first use) and its structural digest — built once at
 * install time and shared by every session bound to it.
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

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "nfa/nfa.h"
#include "pap/prepared.h"

namespace pap {
namespace serve {

/** One shareable compilation of a ruleset automaton. */
struct CompiledRuleset
{
    /** Copy and prepare @p nfa (finalized). */
    explicit CompiledRuleset(const Nfa &nfa);

    CompiledRuleset(const CompiledRuleset &) = delete;
    CompiledRuleset &operator=(const CompiledRuleset &) = delete;

    /** Monotone install counter; 1 is the ruleset the daemon booted with. */
    std::uint64_t generation = 0;
    /** Owned copy of the automaton (sessions outlive the caller's). */
    const Nfa nfa;
    /** What the chunks run on: the compiled form, components and ASG,
        the range sizes the chunker cuts by, and the flow plans by
        chunk-boundary symbol, shared by every chunk of every session
        bound to this ruleset. */
    const PreparedAutomaton prepared;
    /** automatonDigest(nfa): what every checkpoint identity of this
        ruleset's sessions is built on. */
    const std::uint64_t digest;
};

/** Thread-safe holder of the current ruleset generation. */
class RulesetRegistry
{
  public:
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
    mutable std::mutex mutex_;
    std::shared_ptr<const CompiledRuleset> current_;
    std::uint64_t nextGeneration_ = 1;
    mutable std::vector<std::weak_ptr<const CompiledRuleset>> live_;
};

} // namespace serve
} // namespace pap

#endif // PAP_SERVE_RULESET_REGISTRY_H
