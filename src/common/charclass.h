/**
 * @file
 * A 256-bit character class: the label of a homogeneous (ANML-style) NFA
 * state. On the AP this is exactly the one-hot-per-row column an STE
 * stores in its DRAM array (Section 2.1 of the paper).
 */

#ifndef PAP_COMMON_CHARCLASS_H
#define PAP_COMMON_CHARCLASS_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace pap {

/**
 * Set of 8-bit symbols. Value type; cheap to copy (32 bytes).
 */
class CharClass
{
  public:
    /** Empty class (matches nothing). */
    constexpr CharClass() : words{} {}

    /** Class matching exactly one symbol. */
    static CharClass single(Symbol s);

    /** Class matching the inclusive symbol range [lo, hi]. */
    static CharClass range(Symbol lo, Symbol hi);

    /** Class matching every symbol (the '*' self-loop label). */
    static CharClass all();

    /** Class matching the symbols of @p chars. */
    static CharClass fromString(const std::string &chars);

    /** Membership test. */
    bool
    test(Symbol s) const
    {
        return (words[s >> 6] >> (s & 63)) & 1;
    }

    /** Add one symbol. */
    void
    set(Symbol s)
    {
        words[s >> 6] |= std::uint64_t{1} << (s & 63);
    }

    /** Remove one symbol. */
    void
    reset(Symbol s)
    {
        words[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }

    /** Number of symbols in the class. */
    int count() const;

    /** True if the class matches nothing. */
    bool empty() const;

    /** True if the class matches all 256 symbols. */
    bool full() const { return count() == kAlphabetSize; }

    /** Complement (match everything this class does not). */
    CharClass complement() const;

    /** Union. */
    CharClass &operator|=(const CharClass &other);

    /** Intersection. */
    CharClass &operator&=(const CharClass &other);

    /** True if the classes share a symbol. */
    bool intersects(const CharClass &other) const;

    bool operator==(const CharClass &other) const = default;

    /**
     * Render as a compact, regex-like string ("a", "[a-fx]", "*", "[]")
     * for debugging and serialization.
     */
    std::string toString() const;

    /** Lowest symbol in the class, or -1 if empty. */
    int lowest() const;

    /**
     * The @p i-th member symbol in ascending order (0-based);
     * @p i must be below count().
     */
    Symbol nthSet(int i) const;

    /** All member symbols in ascending order. */
    std::vector<Symbol> toSymbols() const;

    /**
     * Call @p f(Symbol) for each member in ascending order; costs one
     * step per member, not per alphabet symbol.
     */
    template <typename F>
    void
    forEachSymbol(F &&f) const
    {
        for (int i = 0; i < 4; ++i)
            for (std::uint64_t w = words[i]; w; w &= w - 1)
                f(static_cast<Symbol>(i * 64 + std::countr_zero(w)));
    }

  private:
    std::array<std::uint64_t, 4> words;
};

/** Out-of-place union. */
CharClass operator|(CharClass lhs, const CharClass &rhs);

/** Out-of-place intersection. */
CharClass operator&(CharClass lhs, const CharClass &rhs);

} // namespace pap

#endif // PAP_COMMON_CHARCLASS_H
