#include "common/bitvector.h"

namespace pap {

void
BitVector::checkCompatible(const BitVector &other) const
{
    PAP_ASSERT(numBits == other.numBits,
               "size mismatch: ", numBits, " vs ", other.numBits);
}

void
BitVector::clearAll()
{
    std::fill(words.begin(), words.end(), 0);
}

void
BitVector::setAll()
{
    std::fill(words.begin(), words.end(), ~std::uint64_t{0});
    const std::size_t tail = numBits & 63;
    if (tail && !words.empty())
        words.back() &= (std::uint64_t{1} << tail) - 1;
}

bool
BitVector::none() const
{
    for (const auto w : words)
        if (w)
            return false;
    return true;
}

std::size_t
BitVector::count() const
{
    std::size_t total = 0;
    for (const auto w : words)
        total += static_cast<std::size_t>(popcount64(w));
    return total;
}

BitVector &
BitVector::operator|=(const BitVector &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] |= other.words[i];
    return *this;
}

BitVector &
BitVector::operator&=(const BitVector &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= other.words[i];
    return *this;
}

BitVector &
BitVector::andNot(const BitVector &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= ~other.words[i];
    return *this;
}

bool
BitVector::intersects(const BitVector &other) const
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i] & other.words[i])
            return true;
    return false;
}

bool
BitVector::isSubsetOf(const BitVector &other) const
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i] & ~other.words[i])
            return false;
    return true;
}

std::uint64_t
BitVector::hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto w : words) {
        h ^= w;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<std::uint32_t>
BitVector::toIndices() const
{
    std::vector<std::uint32_t> out;
    out.reserve(count());
    forEachSet([&](std::size_t idx) {
        out.push_back(static_cast<std::uint32_t>(idx));
    });
    return out;
}

BitVector
operator|(BitVector lhs, const BitVector &rhs)
{
    lhs |= rhs;
    return lhs;
}

BitVector
operator&(BitVector lhs, const BitVector &rhs)
{
    lhs &= rhs;
    return lhs;
}

} // namespace pap
