#include "common/charclass.h"

#include <bit>
#include <cctype>
#include <sstream>

#include "common/logging.h"

namespace pap {

CharClass
CharClass::single(Symbol s)
{
    CharClass c;
    c.set(s);
    return c;
}

CharClass
CharClass::range(Symbol lo, Symbol hi)
{
    CharClass c;
    for (int s = lo; s <= hi; ++s)
        c.set(static_cast<Symbol>(s));
    return c;
}

CharClass
CharClass::all()
{
    CharClass c;
    c.words.fill(~std::uint64_t{0});
    return c;
}

CharClass
CharClass::fromString(const std::string &chars)
{
    CharClass c;
    for (const char ch : chars)
        c.set(static_cast<Symbol>(static_cast<unsigned char>(ch)));
    return c;
}

int
CharClass::count() const
{
    int total = 0;
    for (const auto w : words)
        total += std::popcount(w);
    return total;
}

bool
CharClass::empty() const
{
    for (const auto w : words)
        if (w)
            return false;
    return true;
}

CharClass
CharClass::complement() const
{
    CharClass c;
    for (std::size_t i = 0; i < words.size(); ++i)
        c.words[i] = ~words[i];
    return c;
}

CharClass &
CharClass::operator|=(const CharClass &other)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] |= other.words[i];
    return *this;
}

CharClass &
CharClass::operator&=(const CharClass &other)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= other.words[i];
    return *this;
}

bool
CharClass::intersects(const CharClass &other) const
{
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i] & other.words[i])
            return true;
    return false;
}

int
CharClass::lowest() const
{
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i])
            return static_cast<int>(i * 64) + std::countr_zero(words[i]);
    return -1;
}

Symbol
CharClass::nthSet(int i) const
{
    for (int s = 0; s < kAlphabetSize; ++s) {
        if (test(static_cast<Symbol>(s)) && i-- == 0)
            return static_cast<Symbol>(s);
    }
    PAP_PANIC("nthSet index out of range");
}

std::vector<Symbol>
CharClass::toSymbols() const
{
    std::vector<Symbol> out;
    out.reserve(static_cast<std::size_t>(count()));
    forEachSymbol([&](Symbol s) { out.push_back(s); });
    return out;
}

namespace {

/** Print one symbol in a class description, escaping non-printables. */
void
appendSymbol(std::ostringstream &os, int s)
{
    if (std::isprint(s) && s != '-' && s != ']' && s != '\\' &&
        s != '[' && s != '^') {
        os << static_cast<char>(s);
    } else {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\x%02x", s);
        os << buf;
    }
}

} // namespace

std::string
CharClass::toString() const
{
    if (empty())
        return "[]";
    if (full())
        return "*";
    if (count() == 1) {
        std::ostringstream os;
        appendSymbol(os, lowest());
        return os.str();
    }
    std::ostringstream os;
    os << '[';
    int run_start = -1;
    int prev = -2;
    auto flush = [&](int last) {
        if (run_start < 0)
            return;
        appendSymbol(os, run_start);
        if (last > run_start) {
            if (last > run_start + 1)
                os << '-';
            appendSymbol(os, last);
        }
    };
    for (int s = 0; s < kAlphabetSize; ++s) {
        if (!test(static_cast<Symbol>(s)))
            continue;
        if (s != prev + 1) {
            flush(prev);
            run_start = s;
        }
        prev = s;
    }
    flush(prev);
    os << ']';
    return os.str();
}

CharClass
operator|(CharClass lhs, const CharClass &rhs)
{
    lhs |= rhs;
    return lhs;
}

CharClass
operator&(CharClass lhs, const CharClass &rhs)
{
    lhs &= rhs;
    return lhs;
}

} // namespace pap
