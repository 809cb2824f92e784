/**
 * @file
 * A dynamically sized bit vector with the word-level operations PAPsim
 * needs: union/intersection, subset tests, population counts, set-bit
 * iteration, and stable 64-bit hashing. Used for NFA state vectors,
 * connected-component masks, and AP State Vector Cache contents.
 */

#ifndef PAP_COMMON_BITVECTOR_H
#define PAP_COMMON_BITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace pap {

/**
 * Population count without a library call: the x86-64 baseline the
 * project builds for has no popcnt instruction, and std::popcount
 * there calls into libgcc once per word. Every population count in
 * PAPsim goes through this one.
 */
inline std::uint64_t
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/**
 * Fixed-capacity-after-construction bit vector. All binary operations
 * require both operands to have the same size; this is asserted because
 * mixing vectors from different automata is always a bug.
 */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct with @p nbits bits, all clear. */
    explicit BitVector(std::size_t nbits)
        : numBits(nbits), words((nbits + 63) / 64, 0)
    {}

    /** Number of bits this vector holds. */
    std::size_t size() const { return numBits; }

    /** Number of 64-bit words backing the vector. */
    std::size_t wordCount() const { return words.size(); }

    /** Read one bit. */
    bool
    test(std::size_t pos) const
    {
        PAP_ASSERT(pos < numBits, "bit ", pos, " out of range ", numBits);
        return (words[pos >> 6] >> (pos & 63)) & 1;
    }

    /** Set one bit. */
    void
    set(std::size_t pos)
    {
        PAP_ASSERT(pos < numBits, "bit ", pos, " out of range ", numBits);
        words[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    /** Clear one bit. */
    void
    reset(std::size_t pos)
    {
        PAP_ASSERT(pos < numBits, "bit ", pos, " out of range ", numBits);
        words[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /** Clear every bit. */
    void clearAll();

    /** Set every bit (tail bits beyond size() stay clear). */
    void setAll();

    /** True if no bit is set. */
    bool none() const;

    /** True if at least one bit is set. */
    bool any() const { return !none(); }

    /** Number of set bits. */
    std::size_t count() const;

    /** In-place union. */
    BitVector &operator|=(const BitVector &other);

    /** In-place intersection. */
    BitVector &operator&=(const BitVector &other);

    /** In-place difference (this and-not other). */
    BitVector &andNot(const BitVector &other);

    /** True if this and @p other share at least one set bit. */
    bool intersects(const BitVector &other) const;

    /** True if every set bit of this vector is also set in @p other. */
    bool isSubsetOf(const BitVector &other) const;

    bool operator==(const BitVector &other) const = default;

    /**
     * Stable 64-bit FNV-1a hash of the contents; equal vectors hash
     * equal, making this suitable for convergence-check bucketing.
     */
    std::uint64_t hash() const;

    /**
     * Invoke @p fn(index) for every set bit in ascending order.
     * @tparam Fn callable taking a std::size_t.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t word = words[w];
            while (word) {
                const int bit = __builtin_ctzll(word);
                fn(w * 64 + static_cast<std::size_t>(bit));
                word &= word - 1;
            }
        }
    }

    /** Collect set-bit indices into a vector (ascending). */
    std::vector<std::uint32_t> toIndices() const;

    /** Direct word access for the AP state-vector model. */
    const std::vector<std::uint64_t> &rawWords() const { return words; }

    /**
     * Mutable word access for word-parallel kernels (the engine's
     * shift step). Callers keep the bits past size() clear.
     */
    std::uint64_t *wordData() { return words.data(); }

  private:
    std::size_t numBits = 0;
    std::vector<std::uint64_t> words;

    void checkCompatible(const BitVector &other) const;
};

/** Out-of-place union. */
BitVector operator|(BitVector lhs, const BitVector &rhs);

/** Out-of-place intersection. */
BitVector operator&(BitVector lhs, const BitVector &rhs);

} // namespace pap

#endif // PAP_COMMON_BITVECTOR_H
