/**
 * @file
 * Residency model of the AP's State Vector Cache (SVC): per-device
 * storage for up to 512 flow contexts (Section 3.2). The timeline
 * (pap/timeline.h) drives it when a segment schedules more flows than
 * the cache holds; the contexts themselves live in the flows' engines,
 * so the cache tracks only which flows are resident and what evicting
 * each would cost.
 *
 * Admission beyond capacity evicts one victim: the resident, unpinned
 * flow with the smallest modeled restore cost (the caller passes the
 * 1668-cycle re-upload plus the flow's remaining lifetime, so flows
 * about to deactivate or converge go first: they will never need
 * restoring). Equal costs evict the most recently touched flow: under
 * the cyclic TDM schedule it is the farthest from its next access,
 * the Belady choice. The flow id breaks any remaining tie, so every
 * simulated timeline is deterministic. Victim choice is O(log
 * capacity). Pinned entries (the ASG flow) are never victims, and a
 * re-admission after an eviction is classified as a re-upload so the
 * timing model can charge the state-vector upload for it.
 */

#ifndef PAP_AP_STATE_VECTOR_CACHE_H
#define PAP_AP_STATE_VECTOR_CACHE_H

#include <cstdint>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace pap {

/** Access counts of a State Vector Cache (see docs/observability.md). */
struct SvcCounters
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reuploads = 0;

    SvcCounters &
    operator+=(const SvcCounters &other)
    {
        loadHits += other.loadHits;
        loadMisses += other.loadMisses;
        evictions += other.evictions;
        reuploads += other.reuploads;
        return *this;
    }
};

/** One device's State Vector Cache. */
class StateVectorCache
{
  public:
    /** @param capacity maximum resident flow contexts (512 on D480). */
    explicit StateVectorCache(std::uint32_t capacity);

    /** What an admit() did to the cache. */
    struct Admission
    {
        /** The evicted flow (kInvalidFlow when nothing was evicted). */
        FlowId victim = kInvalidFlow;
        /**
         * The admitted flow had been evicted earlier and is being
         * restored: the caller owes a modeled state-vector re-upload.
         * First-ever admissions are compulsory and free.
         */
        bool reupload = false;
    };

    /**
     * Look up a resident flow's context for this TDM round. A hit
     * refreshes its recency and sets its restore @p cost; a miss only
     * counts (the caller then admits the flow).
     */
    bool load(FlowId flow, std::uint64_t cost);

    /**
     * Admit a non-resident flow with restore @p cost, evicting the
     * victim when the cache is full. @p pinned entries are never
     * victims. Fails with CapacityExceeded only when the cache is
     * full and every resident entry is pinned: the flow then runs
     * without residency.
     */
    Result<Admission> admit(FlowId flow, std::uint64_t cost,
                            bool pinned = false);

    /**
     * Drop a flow's entry (deactivation, convergence merge, or FIV
     * kill). A deliberate drop is not an eviction: a later admission
     * of the same id is compulsory, not a re-upload. @return true when
     * an entry was actually resident.
     */
    bool invalidate(FlowId flow);

    /** True if the flow currently has a resident context. */
    bool resident(FlowId flow) const
    {
        return flow < flows_.size() && flows_[flow].resident;
    }

    const SvcCounters &counters() const { return counters_; }

  private:
    /** Eviction order: cheapest first, then most recent, then id. */
    struct VictimKey
    {
        std::uint64_t cost;
        std::uint64_t touch;
        FlowId flow;

        bool
        operator<(const VictimKey &o) const
        {
            if (cost != o.cost)
                return cost < o.cost;
            if (touch != o.touch)
                return touch > o.touch;
            return flow < o.flow;
        }
    };

    /** Per-flow residency facts, indexed by flow id. */
    struct Flow
    {
        std::uint64_t cost = 0;
        std::uint64_t touch = 0;
        bool resident = false;
        bool pinned = false;
        /** Evicted and not re-admitted since (re-upload accounting). */
        bool evicted = false;
    };

    VictimKey key(FlowId flow) const
    {
        return {flows_[flow].cost, flows_[flow].touch, flow};
    }

    std::uint32_t capacity_;
    std::uint32_t occupancy_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<Flow> flows_;
    /** Resident, unpinned flows in eviction order. */
    std::set<VictimKey> victims_;
    SvcCounters counters_;
};

} // namespace pap

#endif // PAP_AP_STATE_VECTOR_CACHE_H
