#include "engine/functional_engine.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace pap {

namespace {

/**
 * Datapath threshold, in active states per word of the state bitset
 * (CompiledNfa::words()): a step runs on the shift datapath when at
 * least this many states per word are active, and on the sparse list
 * below. Measured on the ANMLZoo suite of the benchmark of record
 * (seed 5, 4-vCPU Xeon): promoting at one state per two words made
 * Protomata's traced sequential oracle 1.7x slower (about 110 -> 180
 * ms per pass) and its segments 1.6x slower; one and two per word
 * measured the same within noise. Demoting lower than promoting (at
 * one state per four words) cut SPM's datapath switches from 19 to 4
 * per 1,000 flow steps, and changed no other automaton's, but gained
 * nothing: sim_msym_per_s split 2-2 over four 25 s pairs (medians
 * 0.646 and 0.638 Msym/s), and traced SPM segments, Protomata and the
 * oracles measured the same within noise. SPM's false flows (about
 * 3,550 of 45,225 states active, 5 per word) and the Fermi, Hamming
 * and Levenshtein oracles run on the shift step.
 */
constexpr std::size_t kShiftActivePerWord = 1;

/**
 * dst |= (x & mask) moved @p offset states up (down when negative),
 * over @p n words. Bits moved past either end are dropped; a class
 * mask never holds a source whose target lies outside the automaton.
 */
void
orShifted(std::uint64_t *dst, const std::uint64_t *x,
          const std::uint64_t *mask, std::size_t n, std::int64_t offset)
{
    const std::uint64_t dist = offset >= 0
                                   ? static_cast<std::uint64_t>(offset)
                                   : static_cast<std::uint64_t>(-offset);
    const std::size_t ws = static_cast<std::size_t>(dist >> 6);
    const unsigned bs = static_cast<unsigned>(dist & 63);
    if (ws >= n)
        return;
    const std::size_t span = n - ws;
    if (offset >= 0) {
        std::uint64_t *out = dst + ws;
        if (bs == 0) {
            for (std::size_t w = 0; w < span; ++w)
                out[w] |= x[w] & mask[w];
            return;
        }
        out[0] |= (x[0] & mask[0]) << bs;
        for (std::size_t w = 1; w < span; ++w)
            out[w] |= ((x[w] & mask[w]) << bs) |
                      ((x[w - 1] & mask[w - 1]) >> (64 - bs));
        return;
    }
    const std::uint64_t *in = x + ws;
    const std::uint64_t *in_mask = mask + ws;
    if (bs == 0) {
        for (std::size_t w = 0; w < span; ++w)
            dst[w] |= in[w] & in_mask[w];
        return;
    }
    for (std::size_t w = 0; w + 1 < span; ++w)
        dst[w] |= ((in[w] & in_mask[w]) >> bs) |
                  ((in[w + 1] & in_mask[w + 1]) << (64 - bs));
    dst[span - 1] |= (in[span - 1] & in_mask[span - 1]) >> bs;
}

} // namespace

SparseActiveList::SparseActiveList(const CompiledNfa &compiled,
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
SparseActiveList::assign(const std::vector<StateId> &states)
{
    active.clear();
    implicitAfter = -1;
    implicitCount = 0;
    scratch->bump();
    for (const StateId q : states) {
        PAP_ASSERT(q < cnfa.size(), "state ", q, " out of range");
        if (startsEnabled && cnfa.isAllInputStart(q))
            continue;
        if (scratch->claim(q))
            active.push_back(q);
    }
}

void
SparseActiveList::assignBits(const BitVector &bits)
{
    active.clear();
    implicitAfter = -1;
    implicitCount = 0;
    bits.forEachSet(
        [&](std::size_t q) { active.push_back(static_cast<StateId>(q)); });
}

void
SparseActiveList::step(Symbol s, std::uint64_t offset,
                       std::vector<ReportEvent> &events,
                       EngineCounters &stats)
{
    scratch->bump();
    next.clear();
    const std::uint64_t *row = cnfa.matchRow(s);
    std::uint64_t matched = 0;
    std::uint64_t edges = 0;
    const std::size_t scanned = active.size();
    for (const StateId q : active) {
        if (!((row[q >> 6] >> (q & 63)) & 1))
            continue;
        ++matched;
        if (cnfa.reporting(q))
            events.push_back(ReportEvent{offset, q, cnfa.reportCode(q)});
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
            events.push_back(ReportEvent{offset, sr.state, sr.code});
        for (const StateId t : cnfa.startEnables(s))
            if (scratch->claim(t))
                next.push_back(t);
    }
    stats.matches += matched;
    stats.succRows += matched;
    // Datapath cost: one label probe per scanned active state (charged
    // as the 32-byte label it tests) plus the successor ids actually
    // walked — traffic proportional to activity, not to automaton size.
    stats.maskWords += scanned;
    stats.bytesTouched += 32ull * scanned + 4ull * (edges + scanned);
    active.swap(next);
}

void
SparseActiveList::stepImplicitStarts(Symbol s, std::uint64_t offset,
                                     std::vector<ReportEvent> &events,
                                     EngineCounters &stats)
{
    scratch->bump();
    next.clear();
    std::uint64_t matched = 0;
    std::uint64_t edges = 0;
    const auto fire = [&](StateId q) {
        ++matched;
        if (cnfa.reporting(q))
            events.push_back(ReportEvent{offset, q, cnfa.reportCode(q)});
        const auto [begin, end] = cnfa.successors(q);
        edges += static_cast<std::uint64_t>(end - begin);
        for (const StateId *t = begin; t != end; ++t) {
            if (cnfa.coveredByStarts(*t, s))
                continue;
            if (scratch->claim(*t))
                next.push_back(*t);
        }
    };
    std::uint64_t pairs = 0;
    if (implicitCount) {
        const auto [begin, end] =
            cnfa.startPairs(static_cast<Symbol>(implicitAfter), s);
        pairs = static_cast<std::uint64_t>(end - begin);
        for (const StateId *q = begin; q != end; ++q)
            fire(*q);
    }
    const std::uint64_t *row = cnfa.matchRow(s);
    for (const StateId q : active)
        if ((row[q >> 6] >> (q & 63)) & 1)
            fire(q);
    stats.matches += cnfa.startMatchCount(s);
    for (const auto &sr : cnfa.startReports(s))
        events.push_back(ReportEvent{offset, sr.state, sr.code});
    for (const StateId t : cnfa.wideStartEnables(s))
        if (scratch->claim(t))
            next.push_back(t);
    stats.matches += matched;
    stats.succRows += matched;
    stats.maskWords += size();
    // Datapath cost: the listed states probed, as in step(), plus the
    // table entries read; the implicit states cost nothing.
    stats.bytesTouched += 36ull * active.size() + 4ull * (pairs + edges);
    active.swap(next);
    implicitAfter = s;
    implicitCount = cnfa.narrowStartEnables(s).size();
}

const std::vector<StateId> &
SparseActiveList::implicitStates() const
{
    static const std::vector<StateId> none;
    return implicitAfter < 0
               ? none
               : cnfa.narrowStartEnables(static_cast<Symbol>(implicitAfter));
}

FunctionalEngine::FunctionalEngine(const CompiledNfa &compiled,
                                   bool starts_enabled,
                                   EngineScratch *shared_scratch)
    : cnfa(compiled), startsEnabled(starts_enabled),
      list(compiled, starts_enabled, shared_scratch)
{
}

void
FunctionalEngine::reset(const std::vector<StateId> &initial_active,
                        std::uint64_t offset_base)
{
    events.clear();
    stats = EngineCounters{};
    offsetCursor = offset_base;
    overwriteActive(initial_active);
}

void
FunctionalEngine::overwriteActive(const std::vector<StateId> &vector)
{
    list.assign(vector);
    onBits = false;
    sortedValid = false;
}

void
FunctionalEngine::promote()
{
    if (bits.size() != cnfa.size()) {
        bits = BitVector(cnfa.size());
        nextBits = BitVector(cnfa.size());
    } else {
        bits.clearAll();
    }
    for (const StateId q : list.states())
        bits.set(q);
    for (const StateId q : list.implicitStates())
        bits.set(q);
    bitCount = list.size();
    onBits = true;
}

void
FunctionalEngine::demote()
{
    list.assignBits(bits);
    onBits = false;
}

void
FunctionalEngine::step(Symbol s)
{
    sortedValid = false;
    const std::size_t live = activeCount();
    const bool dense = live > 0 && live >= kShiftActivePerWord * cnfa.words();
    if (dense && !onBits)
        promote();
    else if (!dense && onBits)
        demote();
    if (onBits)
        shiftStep(s);
    else if (startsEnabled)
        list.stepImplicitStarts(s, offsetCursor, events, stats);
    else
        list.step(s, offsetCursor, events, stats);
    const std::size_t active = activeCount();
    stats.enables += active;
    ++stats.densityOctiles[densityOctile(active, cnfa.size())];
    ++stats.symbols;
    ++offsetCursor;
}

/**
 * next = OR_k((active & match[s] & class_k) << offset_k), plus the
 * successor rows of matched exception states and, with starts live,
 * the AllInput starts' enables with the AllInput starts themselves
 * masked out.
 */
void
FunctionalEngine::shiftStep(Symbol s)
{
    const std::size_t words = cnfa.words();
    std::uint64_t *matched_bits = bits.wordData();
    const std::uint64_t *row = cnfa.matchRow(s);
    std::uint64_t matched = 0;
    for (std::size_t w = 0; w < words; ++w) {
        matched_bits[w] &= row[w];
        matched += popcount64(matched_bits[w]);
    }
    nextBits.clearAll();
    std::uint64_t *next = nextBits.wordData();
    // Bitset words read per word of the state vector: the active set
    // and the match row, then one per mask pass below.
    std::uint64_t passes = 2;
    std::uint64_t exception_rows = 0;
    std::uint64_t exception_edges = 0;
    if (matched) {
        for (const ShiftClass &k : cnfa.shiftClasses())
            orShifted(next, matched_bits, k.sources.rawWords().data(),
                      words, k.offset);
        passes += cnfa.shiftClasses().size();
        if (cnfa.reportMask().any()) {
            ++passes;
            const std::uint64_t *report = cnfa.reportMask().rawWords().data();
            for (std::size_t w = 0; w < words; ++w)
                for (std::uint64_t v = matched_bits[w] & report[w]; v;
                     v &= v - 1) {
                    const auto q = static_cast<StateId>(
                        w * 64 + std::countr_zero(v));
                    events.push_back(ReportEvent{offsetCursor, q,
                                                 cnfa.reportCode(q)});
                }
        }
        if (cnfa.exceptionMask().any()) {
            ++passes;
            const std::uint64_t *exc = cnfa.exceptionMask().rawWords().data();
            for (std::size_t w = 0; w < words; ++w)
                for (std::uint64_t v = matched_bits[w] & exc[w]; v;
                     v &= v - 1) {
                    const auto q = static_cast<StateId>(
                        w * 64 + std::countr_zero(v));
                    const auto [begin, end] = cnfa.successors(q);
                    ++exception_rows;
                    exception_edges +=
                        static_cast<std::uint64_t>(end - begin);
                    for (const StateId *t = begin; t != end; ++t)
                        nextBits.set(*t);
                }
        }
    }
    if (startsEnabled) {
        stats.matches += cnfa.startMatchCount(s);
        for (const auto &sr : cnfa.startReports(s))
            events.push_back(ReportEvent{offsetCursor, sr.state, sr.code});
        for (const StateId t : cnfa.startEnables(s))
            nextBits.set(t);
    }
    std::uint64_t count = 0;
    if (startsEnabled && cnfa.allInputMask().any()) {
        ++passes;
        const std::uint64_t *all_input =
            cnfa.allInputMask().rawWords().data();
        for (std::size_t w = 0; w < words; ++w) {
            next[w] &= ~all_input[w];
            count += popcount64(next[w]);
        }
    } else {
        for (std::size_t w = 0; w < words; ++w)
            count += popcount64(next[w]);
    }
    stats.matches += matched;
    stats.succRows += matched;
    stats.maskWords += bitCount;
    stats.bytesTouched += 8ull * words * passes +
                          4ull * (exception_rows + exception_edges);
    ++stats.shiftSteps;
    std::swap(bits, nextBits);
    bitCount = static_cast<std::size_t>(count);
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
        if (onBits) {
            sortedCache.clear();
            bits.forEachSet([&](std::size_t q) {
                sortedCache.push_back(static_cast<StateId>(q));
            });
        } else {
            sortedCache = list.states();
            sortedCache.insert(sortedCache.end(),
                               list.implicitStates().begin(),
                               list.implicitStates().end());
            std::sort(sortedCache.begin(), sortedCache.end());
        }
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
    return other.activeCount() == activeCount() &&
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
