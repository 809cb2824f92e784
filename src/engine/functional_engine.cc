#include "engine/functional_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace pap {

FunctionalEngine::FunctionalEngine(const CompiledNfa &compiled,
                                   bool starts_enabled,
                                   EngineScratch *shared_scratch)
    : cnfa(compiled), startsEnabled(starts_enabled)
{
    if (shared_scratch) {
        scratch = shared_scratch;
    } else {
        ownedScratch = std::make_unique<EngineScratch>(compiled.size());
        scratch = ownedScratch.get();
    }
}

void
FunctionalEngine::reset(const std::vector<StateId> &initial_active,
                        std::uint64_t offset_base)
{
    active.clear();
    events.clear();
    stats = EngineCounters{};
    offsetCursor = offset_base;
    sortedValid = false;
    scratch->bump();
    for (const StateId q : initial_active) {
        PAP_ASSERT(q < cnfa.size(), "seed state ", q, " out of range");
        if (startsEnabled && cnfa.isAllInputStart(q))
            continue;
        if (scratch->claim(q))
            active.push_back(q);
    }
}

void
FunctionalEngine::overwriteActive(const std::vector<StateId> &vector)
{
    active.clear();
    sortedValid = false;
    scratch->bump();
    for (const StateId q : vector) {
        PAP_ASSERT(q < cnfa.size(), "state ", q, " out of range");
        if (startsEnabled && cnfa.isAllInputStart(q))
            continue;
        if (scratch->claim(q))
            active.push_back(q);
    }
}

void
FunctionalEngine::step(Symbol s)
{
    scratch->bump();
    next.clear();
    sortedValid = false;
    std::uint64_t edges = 0;
    const std::size_t scanned = active.size();
    for (const StateId q : active) {
        if (!cnfa.label(q).test(s))
            continue;
        ++stats.matches;
        ++stats.succRows;
        if (cnfa.reporting(q))
            events.push_back(
                ReportEvent{offsetCursor, q, cnfa.reportCode(q)});
        const auto [begin, end] = cnfa.successors(q);
        edges += static_cast<std::uint64_t>(end - begin);
        for (const StateId *t = begin; t != end; ++t) {
            if (startsEnabled && cnfa.isAllInputStart(*t))
                continue;
            if (scratch->claim(*t))
                next.push_back(*t);
        }
    }
    if (startsEnabled) {
        stats.matches += cnfa.startMatchCount(s);
        for (const auto &sr : cnfa.startReports(s))
            events.push_back(ReportEvent{offsetCursor, sr.state,
                                         sr.code});
        for (const StateId t : cnfa.startEnables(s))
            if (scratch->claim(t))
                next.push_back(t);
    }
    // Datapath cost: one 256-bit label bitmap probed per scanned
    // active state plus the successor ids actually walked — traffic
    // proportional to activity, not to automaton size.
    stats.maskWords += scanned;
    stats.bytesTouched += 32ull * scanned + 4ull * (edges + scanned);
    active.swap(next);
    stats.enables += active.size();
    ++stats.densityOctiles[densityOctile(active.size(), cnfa.size())];
    ++stats.symbols;
    ++offsetCursor;
}

void
FunctionalEngine::run(const Symbol *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        step(data[i]);
}

const std::vector<StateId> &
FunctionalEngine::sortedActive() const
{
    if (!sortedValid) {
        sortedCache = active;
        std::sort(sortedCache.begin(), sortedCache.end());
        sortedValid = true;
    }
    return sortedCache;
}

std::vector<StateId>
FunctionalEngine::snapshot() const
{
    return sortedActive();
}

std::uint64_t
FunctionalEngine::stateHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const StateId q : sortedActive()) {
        h ^= q;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
FunctionalEngine::sameActiveSet(const FunctionalEngine &other) const
{
    return other.active.size() == active.size() &&
           sortedActive() == other.sortedActive();
}

std::vector<ReportEvent>
FunctionalEngine::takeReports()
{
    std::vector<ReportEvent> out;
    out.swap(events);
    return out;
}

} // namespace pap
