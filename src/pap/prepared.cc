#include "pap/prepared.h"

#include "obs/metrics.h"

namespace pap {

PreparedAutomaton::PreparedAutomaton(const Nfa &nfa)
    : nfa(nfa), cnfa(nfa), comps(connectedComponents(nfa)),
      asg(alwaysActiveStates(nfa)), ranges(nfa)
{
}

const FlowPlan &
PreparedAutomaton::plan(Symbol boundary, const PapOptions &options) const
{
    const std::size_t flags = (options.enableCcMerging ? 1u : 0u) |
                              (options.enableParentMerging ? 2u : 0u) |
                              (options.enableAsgMerging ? 4u : 0u);
    std::lock_guard<std::mutex> lock(planMutex_);
    std::unique_ptr<const FlowPlan> &slot =
        plans_[flags * kAlphabetSize + boundary];
    if (!slot) {
        slot = std::make_unique<const FlowPlan>(
            buildFlowPlan(nfa, comps, asg, boundary, options));
        obs::metrics().add("prepared.plans.built");
    }
    return *slot;
}

} // namespace pap
