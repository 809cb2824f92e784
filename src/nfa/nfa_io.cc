#include "nfa/nfa_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "nfa/anml.h"

namespace pap {

namespace {

/** Render a 256-bit label as 64 hex characters (16 per word). */
std::string
labelToHex(const CharClass &cls)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (int base = 0; base < kAlphabetSize; base += 4) {
        int nibble = 0;
        for (int b = 0; b < 4; ++b)
            if (cls.test(static_cast<Symbol>(base + b)))
                nibble |= 1 << b;
        out.push_back(digits[nibble]);
    }
    return out;
}

CharClass
labelFromHex(const std::string &hex)
{
    if (hex.size() != 64)
        throw std::runtime_error("bad label length in NFA file");
    CharClass cls;
    for (int i = 0; i < 64; ++i) {
        const char c = hex[i];
        int nibble;
        if (c >= '0' && c <= '9')
            nibble = c - '0';
        else if (c >= 'a' && c <= 'f')
            nibble = c - 'a' + 10;
        else
            throw std::runtime_error("bad label digit in NFA file");
        for (int b = 0; b < 4; ++b)
            if (nibble & (1 << b))
                cls.set(static_cast<Symbol>(i * 4 + b));
    }
    return cls;
}

[[noreturn]] void
parseFail(const std::string &what)
{
    throw std::runtime_error("NFA parse error: " + what);
}

} // namespace

void
saveNfa(const Nfa &nfa, std::ostream &os)
{
    PAP_ASSERT(nfa.finalized(), "saveNfa on unfinalized NFA");
    os << "papsim-nfa 1\n";
    os << "name " << nfa.name() << "\n";
    os << "states " << nfa.size() << "\n";
    for (StateId q = 0; q < nfa.size(); ++q) {
        const auto &s = nfa[q];
        os << "s " << q << ' ' << labelToHex(s.label) << ' '
           << static_cast<int>(s.start) << ' ' << (s.reporting ? 1 : 0)
           << ' ' << s.reportCode << "\n";
    }
    for (StateId q = 0; q < nfa.size(); ++q)
        for (const StateId t : nfa[q].succ)
            os << "e " << q << ' ' << t << "\n";
    os << "end\n";
}

void
saveNfaFile(const Nfa &nfa, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        PAP_FATAL("cannot open '", path, "' for writing");
    saveNfa(nfa, os);
    if (!os)
        PAP_FATAL("write failure on '", path, "'");
}

Nfa
loadNfa(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != "papsim-nfa 1")
        parseFail("missing header");

    if (!std::getline(is, line) || line.rfind("name ", 0) != 0)
        parseFail("missing name");
    Nfa nfa(line.substr(5));

    if (!std::getline(is, line) || line.rfind("states ", 0) != 0)
        parseFail("missing state count");
    const std::size_t count = std::stoull(line.substr(7));

    std::size_t seen = 0;
    while (std::getline(is, line)) {
        if (line == "end")
            break;
        std::istringstream ls(line);
        char kind;
        ls >> kind;
        if (kind == 's') {
            StateId id;
            std::string hex;
            int start, reporting;
            ReportCode code;
            ls >> id >> hex >> start >> reporting >> code;
            if (!ls || id != seen)
                parseFail("bad state record");
            if (start < 0 || start > 2)
                parseFail("bad start type");
            nfa.addState(labelFromHex(hex),
                         static_cast<StartType>(start),
                         reporting != 0, code);
            ++seen;
        } else if (kind == 'e') {
            StateId from, to;
            ls >> from >> to;
            if (!ls || from >= seen || to >= seen)
                parseFail("bad edge record");
            nfa.addEdge(from, to);
        } else {
            parseFail("unknown record kind");
        }
    }
    if (seen != count)
        parseFail("state count mismatch");
    nfa.finalize();
    nfa.validate();
    return nfa;
}

Result<Nfa>
loadAutomatonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return Status::error(ErrorCode::InvalidInput,
                             "cannot open automaton file '", path, "'");
    try {
        return path.ends_with(".anml") ? loadAnml(is) : loadNfa(is);
    } catch (const std::runtime_error &e) {
        return Status::error(ErrorCode::InvalidInput, "automaton file '",
                             path, "': ", e.what());
    } catch (const std::logic_error &e) {
        // std::stoul on a count or report code that is not a number.
        return Status::error(ErrorCode::InvalidInput, "automaton file '",
                             path, "': ", e.what());
    }
}

} // namespace pap
