#include "nfa/analysis.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pap {

std::vector<std::vector<StateId>>
buildPredecessors(const Nfa &nfa)
{
    PAP_ASSERT(nfa.finalized(), "buildPredecessors on unfinalized NFA");
    std::vector<std::vector<StateId>> pred(nfa.size());
    for (StateId q = 0; q < nfa.size(); ++q)
        for (const StateId t : nfa[q].succ)
            pred[t].push_back(q);
    for (auto &p : pred) {
        std::sort(p.begin(), p.end());
        p.erase(std::unique(p.begin(), p.end()), p.end());
    }
    return pred;
}

namespace {

/** Union-find with path halving. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent(n)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    std::uint32_t
    find(std::uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void
    unite(std::uint32_t a, std::uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }

  private:
    std::vector<std::uint32_t> parent;
};

} // namespace

Components
connectedComponents(const Nfa &nfa)
{
    PAP_ASSERT(nfa.finalized(), "connectedComponents on unfinalized NFA");
    UnionFind uf(nfa.size());
    for (StateId q = 0; q < nfa.size(); ++q)
        for (const StateId t : nfa[q].succ)
            uf.unite(q, t);

    Components comps;
    comps.of.assign(nfa.size(), kInvalidComponent);
    for (StateId q = 0; q < nfa.size(); ++q) {
        const std::uint32_t root = uf.find(q);
        if (comps.of[root] == kInvalidComponent) {
            comps.of[root] = comps.count++;
            comps.sizes.push_back(0);
        }
        comps.of[q] = comps.of[root];
        ++comps.sizes[comps.of[q]];
    }
    return comps;
}

RangeAnalysis::RangeAnalysis(const Nfa &n) : nfa(n)
{
    PAP_ASSERT(nfa.finalized(), "RangeAnalysis on unfinalized NFA");
    // t is in range(s) exactly when s is in the union of the labels of
    // t's predecessors: one pass over the edges builds those unions,
    // and one pass over the states counts every symbol they hold.
    std::vector<CharClass> into(nfa.size());
    for (StateId q = 0; q < nfa.size(); ++q)
        for (const StateId t : nfa[q].succ)
            into[t] |= nfa[q].label;
    for (const CharClass &u : into)
        u.forEachSymbol([&](Symbol s) { ++sizes[s]; });
}

std::vector<StateId>
RangeAnalysis::computeRange(Symbol s) const
{
    std::vector<StateId> out;
    std::vector<bool> seen(nfa.size(), false);
    for (StateId q = 0; q < nfa.size(); ++q) {
        if (!nfa[q].label.test(s))
            continue;
        for (const StateId t : nfa[q].succ) {
            if (!seen[t]) {
                seen[t] = true;
                out.push_back(t);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::uint32_t
RangeAnalysis::minRange() const
{
    return *std::min_element(sizes.begin(), sizes.end());
}

std::uint32_t
RangeAnalysis::maxRange() const
{
    return *std::max_element(sizes.begin(), sizes.end());
}

double
RangeAnalysis::avgRange() const
{
    const std::uint64_t sum =
        std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
    return static_cast<double>(sum) / kAlphabetSize;
}

Symbol
RangeAnalysis::minRangeSymbol() const
{
    const auto it = std::min_element(sizes.begin(), sizes.end());
    return static_cast<Symbol>(it - sizes.begin());
}

std::vector<StateId>
alwaysActiveStates(const Nfa &nfa)
{
    PAP_ASSERT(nfa.finalized(), "alwaysActiveStates on unfinalized NFA");
    std::vector<bool> in_set(nfa.size(), false);
    std::vector<StateId> worklist;

    auto add = [&](StateId q) {
        if (!in_set[q]) {
            in_set[q] = true;
            worklist.push_back(q);
        }
    };

    for (const StateId q : nfa.startStates()) {
        const auto &st = nfa[q];
        if (st.start == StartType::AllInput) {
            // Re-enabled by hardware before every symbol.
            add(q);
        } else if (st.label.full() && nfa.hasSelfLoop(q)) {
            // Enabled at cycle 0 and self-sustaining on any symbol.
            add(q);
        }
    }

    // A successor of an always-active state whose label matches every
    // symbol is itself enabled on every cycle (from cycle 1 onward).
    while (!worklist.empty()) {
        const StateId q = worklist.back();
        worklist.pop_back();
        if (!nfa[q].label.full())
            continue;
        for (const StateId t : nfa[q].succ)
            add(t);
    }

    std::vector<StateId> out;
    for (StateId q = 0; q < nfa.size(); ++q)
        if (in_set[q])
            out.push_back(q);
    return out;
}

std::vector<StateId>
parentsMatching(const Nfa &nfa, Symbol s)
{
    std::vector<StateId> out;
    for (StateId q = 0; q < nfa.size(); ++q)
        if (nfa[q].label.test(s) && !nfa[q].succ.empty())
            out.push_back(q);
    return out;
}

DegreeStats
degreeStats(const Nfa &nfa)
{
    DegreeStats ds;
    std::uint64_t total = 0;
    for (StateId q = 0; q < nfa.size(); ++q) {
        const auto deg = static_cast<std::uint32_t>(nfa[q].succ.size());
        total += deg;
        ds.maxOut = std::max(ds.maxOut, deg);
        if (nfa.hasSelfLoop(q))
            ++ds.selfLoops;
    }
    if (nfa.size() > 0)
        ds.avgOut = static_cast<double>(total) /
            static_cast<double>(nfa.size());
    return ds;
}

} // namespace pap
