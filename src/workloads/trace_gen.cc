#include "workloads/trace_gen.h"

#include "common/logging.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "engine/functional_engine.h"

namespace pap {

InputTrace
generateTrace(const Nfa &nfa, std::uint64_t len,
              const TraceGenOptions &options, std::uint64_t seed)
{
    PAP_ASSERT(!options.baseAlphabet.empty(),
               "trace generator needs a base alphabet");
    Rng rng(seed);
    CompiledNfa cnfa(nfa);
    // The sparse datapath alone: the walk below samples its list by
    // index, so the trace depends on the list's discovery order.
    SparseActiveList engine(cnfa, /*starts=*/true);
    engine.assign(cnfa.initialActive());
    std::vector<ReportEvent> reports;
    EngineCounters counters;

    std::vector<Symbol> out(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        Symbol sym;
        if (options.separatorPeriod &&
            i % options.separatorPeriod == options.separatorPeriod - 1) {
            sym = options.separator;
        } else if (!engine.states().empty() &&
                   rng.nextBool(options.pm)) {
            // Extend the traversal of a random active state: emit a
            // symbol its label matches, so the state fires and its
            // successors activate (depth-wise walk).
            const auto &active = engine.states();
            const StateId q = active[rng.nextBelow(active.size())];
            const CharClass &cls = cnfa.label(q);
            const int members = cls.count();
            if (members > 0) {
                sym = cls.nthSet(
                    static_cast<int>(rng.nextBelow(members)));
            } else {
                sym = options.baseAlphabet[rng.nextBelow(
                    options.baseAlphabet.size())];
            }
        } else {
            sym = options.baseAlphabet[rng.nextBelow(
                options.baseAlphabet.size())];
        }
        out[i] = sym;
        engine.step(sym, i, reports, counters);
        reports.clear();
    }
    return InputTrace(std::move(out));
}

std::vector<Symbol>
alphabetFromString(const std::string &chars)
{
    std::vector<Symbol> out;
    out.reserve(chars.size());
    for (const char c : chars)
        out.push_back(
            static_cast<Symbol>(static_cast<unsigned char>(c)));
    return out;
}

std::vector<Symbol>
alphabetFromRange(Symbol lo, Symbol hi)
{
    std::vector<Symbol> out;
    for (int s = lo; s <= hi; ++s)
        out.push_back(static_cast<Symbol>(s));
    return out;
}

} // namespace pap
