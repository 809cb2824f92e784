#include "pap/flow_plan.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace pap {

namespace {

std::uint64_t
hashPathKey(ComponentId cc, const std::vector<StateId> &states)
{
    std::uint64_t h = 0xcbf29ce484222325ull ^ cc;
    for (const StateId q : states) {
        h ^= q;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

FlowPlan
buildFlowPlan(const Nfa &nfa, const Components &comps,
              const std::vector<StateId> &asg_states, Symbol boundary,
              const PapOptions &options)
{
    PAP_ASSERT(nfa.finalized(), "buildFlowPlan on unfinalized NFA");
    FlowPlan plan;
    plan.boundarySymbol = boundary;

    std::vector<bool> is_asg(nfa.size(), false);
    if (options.enableAsgMerging)
        for (const StateId q : asg_states)
            is_asg[q] = true;

    // Range members of the boundary symbol, ASG-stripped.
    std::vector<bool> in_range(nfa.size(), false);
    std::vector<StateId> range;
    for (StateId q = 0; q < nfa.size(); ++q) {
        if (!nfa[q].label.test(boundary))
            continue;
        for (const StateId t : nfa[q].succ) {
            if (!in_range[t] && !is_asg[t]) {
                in_range[t] = true;
                range.push_back(t);
            }
        }
    }
    std::sort(range.begin(), range.end());
    plan.flowsInRange = static_cast<std::uint32_t>(range.size());

    // Per-state path count per component (the after-CC statistic).
    {
        std::vector<std::uint32_t> per_cc(comps.count, 0);
        std::uint32_t max_per_cc = 0;
        for (const StateId q : range)
            max_per_cc = std::max(max_per_cc, ++per_cc[comps.of[q]]);
        plan.flowsAfterCc = options.enableCcMerging ? max_per_cc
                                                    : plan.flowsInRange;
    }

    // Build enumeration paths.
    if (options.enableParentMerging) {
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
            dedup;
        for (StateId p = 0; p < nfa.size(); ++p) {
            if (!nfa[p].label.test(boundary) || nfa[p].succ.empty())
                continue;
            EnumPath path;
            path.parent = p;
            path.cc = comps.of[p];
            for (const StateId t : nfa[p].succ)
                if (!is_asg[t])
                    path.startStates.push_back(t);
            if (path.startStates.empty())
                continue; // fully ASG-covered
            // Successor lists are already sorted (finalize()).
            const std::uint64_t key =
                hashPathKey(path.cc, path.startStates);
            auto &bucket = dedup[key];
            bool duplicate = false;
            for (const std::uint32_t idx : bucket) {
                if (plan.paths[idx].cc == path.cc &&
                    plan.paths[idx].startStates == path.startStates) {
                    duplicate = true;
                    break;
                }
            }
            if (duplicate)
                continue;
            bucket.push_back(
                static_cast<std::uint32_t>(plan.paths.size()));
            plan.paths.push_back(std::move(path));
        }
    } else {
        for (const StateId q : range) {
            EnumPath path;
            path.cc = comps.of[q];
            path.startStates = {q};
            plan.paths.push_back(std::move(path));
        }
    }

    // Pack paths into flows: one path per component per flow.
    std::vector<std::vector<std::uint32_t>> by_cc(comps.count);
    for (std::uint32_t i = 0; i < plan.paths.size(); ++i)
        by_cc[plan.paths[i].cc].push_back(i);

    std::uint32_t flow_count = 0;
    if (options.enableCcMerging) {
        for (const auto &group : by_cc)
            flow_count = std::max(
                flow_count, static_cast<std::uint32_t>(group.size()));
    } else {
        flow_count = static_cast<std::uint32_t>(plan.paths.size());
    }
    // A flow count above options.maxFlowsPerSegment is not an error
    // here: the runner fails the run or falls back to the sequential
    // result once it has seen every segment's plan.
    plan.flows.resize(flow_count);
    if (options.enableCcMerging) {
        for (const auto &group : by_cc)
            for (std::uint32_t f = 0; f < group.size(); ++f)
                plan.flows[f].pathIdx.push_back(group[f]);
    } else {
        std::uint32_t f = 0;
        for (const auto &group : by_cc)
            for (const std::uint32_t idx : group)
                plan.flows[f++].pathIdx.push_back(idx);
    }

    for (std::uint32_t f = 0; f < plan.flows.size(); ++f) {
        auto &flow = plan.flows[f];
        flow.id = f;
        for (const std::uint32_t idx : flow.pathIdx)
            flow.seed.insert(flow.seed.end(),
                             plan.paths[idx].startStates.begin(),
                             plan.paths[idx].startStates.end());
        std::sort(flow.seed.begin(), flow.seed.end());
        flow.seed.erase(std::unique(flow.seed.begin(), flow.seed.end()),
                        flow.seed.end());
    }
    plan.flowsAfterParent = flow_count;
    return plan;
}

} // namespace pap
