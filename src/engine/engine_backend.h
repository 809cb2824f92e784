/**
 * @file
 * The execution-backend abstraction of the engine layer. An
 * EngineBackend is one AP execution context (one flow) over one
 * automaton: it owns an active-state set, consumes symbols, and
 * produces report events. Two implementations exist — the sparse
 * FunctionalEngine (active states as an id list, the reference) and
 * the HybridEngine (active states as a word-packed bit vector,
 * mirroring the AP's enable&match datapath, with activity-proportional
 * tile skipping and per-state scatter/tile routing) — and every PAP
 * layer above works against this interface, so future backends (GPU,
 * multi-byte stride) drop in behind it.
 *
 * Equivalence contract (what makes backends interchangeable):
 *  - snapshot() returns the active set sorted ascending;
 *  - stateHash() is the FNV-1a hash of the sorted active ids, so equal
 *    sets hash equal on every backend;
 *  - counters() accumulate identical values for identical inputs
 *    (matches/enables are set cardinalities, never visit orders);
 *  - reports() contain the same event *set* per input cycle; only the
 *    intra-cycle emission order may differ, which every consumer
 *    erases via sortAndDedupReports before comparing or persisting.
 * Under this contract FIVs, composition, convergence checks, and
 * checkpoint files are backend-independent.
 */

#ifndef PAP_ENGINE_ENGINE_BACKEND_H
#define PAP_ENGINE_ENGINE_BACKEND_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "engine/report.h"
#include "engine/simd.h"

namespace pap {

class CompiledNfa;
class DenseNfa;
class EngineScratch;

/**
 * Counters an engine accumulates while running. Recording is O(1)
 * per step (a handful of adds folded into work the step does anyway),
 * so they stay on in every build.
 *
 * symbols/matches/enables are *result* counters and covered by the
 * equivalence contract above: identical across backends for identical
 * inputs. The introspection fields below measure the *cost* of the
 * datapath — how much automaton and state-vector memory a backend
 * touches to produce that result — and are explicitly backend-specific
 * (the word-packed backend ORs successor tiles where the sparse one
 * walks edge lists), so differential tests must not compare them.
 * densityOctiles is the exception: it is derived from the per-step
 * active-set cardinality, which the contract fixes, so it too is
 * backend-invariant.
 */
struct EngineCounters
{
    /** Symbols consumed. */
    std::uint64_t symbols = 0;
    /** State matches (equals AP state transitions triggered). */
    std::uint64_t matches = 0;
    /** States enabled (with duplicates removed per cycle). */
    std::uint64_t enables = 0;

    // --- Datapath introspection (backend-specific cost estimates) ---
    /** Successor rows walked, one per matched state: scattered as
     *  edges or OR'd as tiles on the hybrid backend, edge lists on
     *  the sparse one. */
    std::uint64_t succRows = 0;
    /** Match-mask work per step: state-vector words ANDed (hybrid)
     *  or label bitmaps tested (sparse). */
    std::uint64_t maskWords = 0;
    /** Estimated automaton + state-vector bytes read. This is the
     *  measured form of the large-NFA cache cliff: when bytes per
     *  symbol outgrow the cache, throughput collapses. */
    std::uint64_t bytesTouched = 0;
    /** Histogram of per-step active density: octile k counts steps
     *  with active/states in [k/8, (k+1)/8). Backend-invariant. */
    std::array<std::uint64_t, 8> densityOctiles{};
};

/** Octile index (0..7) for @p active_states of @p total states. */
inline std::size_t
densityOctile(std::size_t active_states, std::size_t total)
{
    if (total == 0)
        return 0;
    const std::size_t k = active_states * 8 / total;
    return k < 7 ? k : 7;
}

/** One execution context (flow) over a compiled automaton. */
class EngineBackend
{
  public:
    virtual ~EngineBackend() = default;

    /**
     * Clear all state and seed the active set. AllInput starts in the
     * seed are dropped when start machinery is live (they would be
     * double-processed). @p offset_base is the absolute input offset
     * of the next symbol (for report events).
     */
    virtual void reset(const std::vector<StateId> &initial_active,
                       std::uint64_t offset_base = 0) = 0;

    /**
     * Replace the active set without touching the cursor, counters,
     * or accumulated reports — the state-vector overwrite a context
     * switch performs when reloading (or mis-reloading) an SVC entry.
     * Applies the same AllInput-start filtering as reset().
     */
    virtual void overwriteActive(const std::vector<StateId> &vector) = 0;

    /** Consume one symbol. */
    virtual void step(Symbol s) = 0;

    /** Consume @p len symbols from @p data. */
    virtual void run(const Symbol *data, std::size_t len) = 0;

    /** True if the active set is empty (the flow is unproductive). */
    virtual bool dead() const = 0;

    /** Number of currently active states. */
    virtual std::size_t activeCount() const = 0;

    /** Sorted copy of the active set (the flow's state vector). */
    virtual std::vector<StateId> snapshot() const = 0;

    /** Order-independent 64-bit hash of the active set. */
    virtual std::uint64_t stateHash() const = 0;

    /**
     * True iff this engine's active set equals @p other's. This is
     * the SVC convergence comparator: a word-compare on the hybrid
     * backend, a sorted-id compare on the sparse one. Backends may be
     * mixed (the comparison falls back to snapshots).
     */
    virtual bool sameActiveSet(const EngineBackend &other) const = 0;

    /** Absolute offset of the next symbol to be consumed. */
    virtual std::uint64_t cursor() const = 0;

    /** Events produced so far (unsorted, in emission order). */
    virtual const std::vector<ReportEvent> &reports() const = 0;

    /** Move the accumulated events out (clears the internal buffer). */
    virtual std::vector<ReportEvent> takeReports() = 0;

    /** Performance counters. */
    virtual const EngineCounters &counters() const = 0;
};

/** Which backend executes a run's flows. */
enum class EngineKind : std::uint8_t
{
    /** Sparse active-id list (FunctionalEngine, the reference). */
    Sparse,
    /** Word-packed vectors with tile skipping and scatter routing
     *  (HybridEngine over a DenseNfa). */
    Hybrid,
};

/** Parse "sparse"/"hybrid"; typed InvalidInput else. */
Result<EngineKind> parseEngineKind(std::string_view text);

/** Stable name of @p kind ("sparse", "hybrid"). */
const char *engineKindName(EngineKind kind);

/**
 * Backend selection plus the shared immutable per-automaton data the
 * engines of one run execute over. Cheap to copy (the dense automaton
 * is shared); safe to use from concurrent workers — make() only reads.
 */
class EngineContext
{
  public:
    /**
     * Build engines of kind @p kind over @p cnfa, precomputing the
     * DenseNfa for the hybrid backend, and resolve the SIMD dispatch
     * level (PAP_SIMD / CPUID probe). @p cnfa must outlive the
     * context. When the level does not resolve (an invalid PAP_SIMD
     * value), the context stays usable on the sparse reference
     * backend at the scalar level and status() carries the typed
     * error for the run driver to surface.
     */
    explicit EngineContext(const CompiledNfa &cnfa,
                           EngineKind kind = EngineKind::Sparse);

    /** OK, or the typed resolution error (invalid PAP_SIMD). */
    const Status &status() const { return status_; }

    /**
     * Create one execution context. @p scratch is the shared dedup
     * scratch of the sparse backend (ignored by the hybrid one); when
     * null a sparse engine owns a private scratch.
     */
    std::unique_ptr<EngineBackend>
    make(bool starts_enabled, EngineScratch *scratch = nullptr) const;

    /** Backend the engines run. */
    EngineKind kind() const { return kind_; }

    /** Name of the backend ("sparse"/"hybrid"). */
    const char *backendName() const { return engineKindName(kind_); }

    /** SIMD level the hybrid engines dispatch to. */
    SimdLevel simdLevel() const { return simd_; }

    /**
     * Backend plus dispatched vector width, e.g. "hybrid+avx512".
     * Plain backend name when sparse runs or the level is scalar.
     */
    const std::string &datapathName() const { return datapath_; }

    /** The compiled automaton the engines run. */
    const CompiledNfa &compiled() const { return *cnfa; }

    /** The dense automaton, or null when the sparse backend runs. */
    const DenseNfa *denseNfa() const { return dnfa.get(); }

  private:
    const CompiledNfa *cnfa;
    std::shared_ptr<const DenseNfa> dnfa;
    EngineKind kind_ = EngineKind::Sparse;
    SimdLevel simd_ = SimdLevel::Scalar;
    std::string datapath_;
    Status status_;
};

} // namespace pap

#endif // PAP_ENGINE_ENGINE_BACKEND_H
