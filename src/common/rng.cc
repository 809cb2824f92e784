#include "common/rng.h"

#include "common/hash.h"

namespace pap {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed through SplitMix64: word k is its (k+1)-th output.
    for (auto &s : state) {
        s = mix64(seed);
        seed += kSplitMix64Gamma;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    PAP_ASSERT(bound > 0, "nextBelow(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int
Rng::nextLength(int lo, int hi, double p_continue)
{
    int len = lo;
    while (len < hi && nextBool(p_continue))
        ++len;
    return len;
}

} // namespace pap
