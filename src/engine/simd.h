/**
 * @file
 * Runtime SIMD capability probe and the vector kernel table the hybrid
 * engine dispatches through. The word-packed enable&match datapath
 * (engine_backend.h) is a handful of bulk bitwise operations over
 * 64-bit word arrays; this header names those operations once
 * (SimdOps) and provides scalar, AVX2, and AVX-512 implementations
 * selected at runtime from CPUID — never at compile time — so one
 * binary runs correctly on any x86-64 host and non-x86 builds fall
 * back to the scalar table transparently.
 *
 * PAP_SIMD=off|scalar|avx2|avx512|auto overrides the probe (an invalid
 * value is a typed InvalidInput error surfaced through
 * EngineContext::status(), like an invalid --engine flag), and a
 * level the host cannot execute clamps down to the detected one, so a
 * pinned CI matrix entry stays portable across heterogeneous runners.
 * The scalar table is always available and is the reference the
 * differential tests compare every vector level against.
 */

#ifndef PAP_ENGINE_SIMD_H
#define PAP_ENGINE_SIMD_H

#include <cstdint>
#include <string_view>

#include "common/error.h"

namespace pap {

/**
 * Successor rows are stored and OR'd in fixed tiles of this many
 * 64-bit words (32 bytes: one AVX2 vector, half an AVX-512 vector).
 * Every word-packed engine vector is padded to a tile multiple so the
 * tile kernels never need tail handling.
 */
inline constexpr std::size_t kSuccTileWords = 4;

/** Vector width the word-packed datapath dispatches to. */
enum class SimdLevel : std::uint8_t
{
    /** Plain 64-bit word loops (the reference; always available). */
    Scalar = 0,
    /** 256-bit AVX2 kernels. */
    Avx2 = 1,
    /** 512-bit AVX-512F kernels (probed as F + VPOPCNTDQ). */
    Avx512 = 2,
};

/** Best level this host can execute (CPUID probe, cached). */
SimdLevel detectSimdLevel();

/**
 * Parse a PAP_SIMD value: "off"/"scalar" -> Scalar, "avx2", "avx512",
 * "auto" -> detectSimdLevel(). Typed InvalidInput otherwise.
 */
Result<SimdLevel> parseSimdLevel(std::string_view text);

/**
 * Level the engines should dispatch to: PAP_SIMD when set (an invalid
 * value is a typed InvalidInput error, like an invalid --engine flag;
 * a valid level the host cannot execute clamps down to the detected
 * one), the CPUID probe otherwise.
 */
Result<SimdLevel> resolveSimdLevel();

/**
 * resolveSimdLevel() with the error path collapsed to the probe — for
 * contexts (benches, direct engine construction) that have no status
 * channel. EngineContext uses resolveSimdLevel() so the typed error
 * still reaches run drivers.
 */
SimdLevel currentSimdLevel();

/** Stable name of @p level ("scalar", "avx2", "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * The bulk word operations of the enable&match datapath. One table
 * per SimdLevel; all implementations are bit-identical (the vector
 * ones are pure data-parallel rewrites), so engines constructed at
 * different levels satisfy the EngineBackend equivalence contract
 * against each other by construction.
 */
struct SimdOps
{
    /** dst[0..n) = 0. */
    void (*clearWords)(std::uint64_t *dst, std::size_t n);
    /** dst[i] = (dst[i] & ~drop[i]) | set[i] (the start-enable fold). */
    void (*andNotOrWords)(std::uint64_t *dst, const std::uint64_t *drop,
                          const std::uint64_t *set, std::size_t n);
    /** dst[i] |= src[i] over exactly kSuccTileWords words. */
    void (*orTile)(std::uint64_t *dst, const std::uint64_t *src);
};

/**
 * Kernel table for @p level. @p level must be executable on this host
 * (resolveSimdLevel()/currentSimdLevel() guarantee that); asking for a
 * level above the probe returns the detected table instead.
 */
const SimdOps &simdOps(SimdLevel level);

} // namespace pap

#endif // PAP_ENGINE_SIMD_H
