/**
 * @file
 * The one 64-bit mixer: the SplitMix64 finalizer, the SplitMix64 step
 * built on it, and the hash-combine step that folds values into a
 * running hash. Fault draws, retry jitter, RNG seeding, the automaton
 * digest and checkpoint identities all hash through these, so their
 * values are fixed by these formulas.
 */

#ifndef PAP_COMMON_HASH_H
#define PAP_COMMON_HASH_H

#include <cstdint>

namespace pap {

/** SplitMix64's increment (the golden-ratio gamma). */
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;

/** The SplitMix64 finalizer: an avalanche mix of @p z. */
constexpr std::uint64_t
splitMix64Finalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** One SplitMix64 output from state @p x: add the gamma, finalize. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    return splitMix64Finalize(x + kSplitMix64Gamma);
}

/** Fold @p v into the running hash @p h, then finalize. */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    return splitMix64Finalize(
        h ^ (v + kSplitMix64Gamma + (h << 6) + (h >> 2)));
}

} // namespace pap

#endif // PAP_COMMON_HASH_H
