#include "serve/ruleset_registry.h"

#include <algorithm>

#include "obs/metrics.h"

namespace pap {
namespace serve {

Result<std::shared_ptr<const CompiledRuleset>>
RulesetRegistry::install(const Nfa &nfa)
{
    if (!nfa.finalized())
        return Status::error(ErrorCode::InvalidInput,
                             "cannot install unfinalized ruleset '",
                             nfa.name(), "'");

    // Compile outside the lock: installs are rare but expensive, and
    // open()/current() must never wait on a compilation.
    auto ruleset = std::make_shared<CompiledRuleset>();
    ruleset->nfa = nfa;
    ruleset->cnfa = std::make_unique<const CompiledNfa>(ruleset->nfa);
    ruleset->digest = automatonDigest(ruleset->nfa);
    ruleset->comps = connectedComponents(ruleset->nfa);
    ruleset->asg = alwaysActiveStates(ruleset->nfa);
    ruleset->rangeSizes = RangeAnalysis(ruleset->nfa).rangeSizes();

    std::shared_ptr<const CompiledRuleset> published;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ruleset->generation = nextGeneration_++;
        published = std::move(ruleset);
        current_ = published;
        live_.push_back(published);
    }
    obs::metrics().setGauge(
        "serve.swap.generation",
        static_cast<double>(published->generation));
    return published;
}

std::shared_ptr<const CompiledRuleset>
RulesetRegistry::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

std::uint64_t
RulesetRegistry::generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->generation : 0;
}

void
RulesetRegistry::setNextGeneration(std::uint64_t next)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!current_ && next > nextGeneration_)
        nextGeneration_ = next;
}

std::size_t
RulesetRegistry::liveGenerations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [](const auto &w) { return w.expired(); }),
                live_.end());
    return live_.size();
}

} // namespace serve
} // namespace pap
