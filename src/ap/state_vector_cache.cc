#include "ap/state_vector_cache.h"

#include "common/logging.h"

namespace pap {

StateVectorCache::StateVectorCache(std::uint32_t capacity)
    : capacity_(capacity)
{
    PAP_ASSERT(capacity > 0, "SVC needs a positive capacity");
}

bool
StateVectorCache::load(FlowId flow, std::uint64_t cost)
{
    if (!resident(flow)) {
        ++counters_.loadMisses;
        return false;
    }
    ++counters_.loadHits;
    Flow &f = flows_[flow];
    if (f.pinned) {
        f.touch = ++tick_;
        f.cost = cost;
        return true;
    }
    // Re-key the entry in place: the node is reused, not reallocated.
    auto node = victims_.extract(key(flow));
    f.touch = ++tick_;
    f.cost = cost;
    node.value() = key(flow);
    victims_.insert(std::move(node));
    return true;
}

Result<StateVectorCache::Admission>
StateVectorCache::admit(FlowId flow, std::uint64_t cost, bool pinned)
{
    PAP_ASSERT(!resident(flow), "admit of resident flow ", flow);
    if (flow >= flows_.size())
        flows_.resize(static_cast<std::size_t>(flow) + 1);
    Admission adm;
    // The victim's set node is reused for the admitted flow, so a full
    // cache admits without allocating.
    std::set<VictimKey>::node_type node;
    if (occupancy_ >= capacity_) {
        if (victims_.empty())
            return Status::error(ErrorCode::CapacityExceeded,
                                 "no evictable SVC entry: all ",
                                 occupancy_, " residents are pinned");
        node = victims_.extract(victims_.begin());
        adm.victim = node.value().flow;
        flows_[adm.victim].resident = false;
        flows_[adm.victim].evicted = true;
        --occupancy_;
        ++counters_.evictions;
    }
    Flow &f = flows_[flow];
    if (f.evicted) {
        // Re-admission of a previously evicted flow: its context must
        // stream back through the state-vector upload path.
        adm.reupload = true;
        ++counters_.reuploads;
    }
    f = Flow{cost, ++tick_, /*resident=*/true, pinned, /*evicted=*/false};
    ++occupancy_;
    if (pinned)
        return adm;
    if (node) {
        node.value() = key(flow);
        victims_.insert(std::move(node));
    } else {
        victims_.insert(key(flow));
    }
    return adm;
}

bool
StateVectorCache::invalidate(FlowId flow)
{
    if (!resident(flow))
        return false;
    Flow &f = flows_[flow];
    if (!f.pinned)
        victims_.erase(key(flow));
    f.resident = false;
    --occupancy_;
    return true;
}

} // namespace pap
