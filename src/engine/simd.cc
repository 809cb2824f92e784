#include "engine/simd.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define PAP_SIMD_X86 1
#include <immintrin.h>
#else
#define PAP_SIMD_X86 0
#endif

namespace pap {

namespace {

// --- Scalar kernels (the reference; always available) ---------------

void
clearScalar(std::uint64_t *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = 0;
}

void
andNotOrScalar(std::uint64_t *dst, const std::uint64_t *drop,
               const std::uint64_t *set, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = (dst[i] & ~drop[i]) | set[i];
}

void
orTileScalar(std::uint64_t *dst, const std::uint64_t *src)
{
    dst[0] |= src[0];
    dst[1] |= src[1];
    dst[2] |= src[2];
    dst[3] |= src[3];
}

constexpr SimdOps kScalarOps = {clearScalar, andNotOrScalar,
                                orTileScalar};

#if PAP_SIMD_X86

// --- AVX2 kernels (256-bit, 4 words per vector) ---------------------
// Per-function target attributes keep the whole file buildable with
// the project's baseline flags; only these bodies emit AVX encodings,
// and they are only ever called after the CPUID probe admits them.

__attribute__((target("avx2"))) void
clearAvx2(std::uint64_t *dst, std::size_t n)
{
    const __m256i z = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), z);
    for (; i < n; ++i)
        dst[i] = 0;
}

__attribute__((target("avx2"))) void
andNotOrAvx2(std::uint64_t *dst, const std::uint64_t *drop,
             const std::uint64_t *set, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i vd = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + i));
        const __m256i vm = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(drop + i));
        const __m256i vs = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(set + i));
        // andnot(vm, vd) = ~vm & vd.
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + i),
            _mm256_or_si256(_mm256_andnot_si256(vm, vd), vs));
    }
    for (; i < n; ++i)
        dst[i] = (dst[i] & ~drop[i]) | set[i];
}

__attribute__((target("avx2"))) void
orTileAvx2(std::uint64_t *dst, const std::uint64_t *src)
{
    static_assert(kSuccTileWords == 4, "one AVX2 vector per tile");
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(dst));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                        _mm256_or_si256(vd, vs));
}

constexpr SimdOps kAvx2Ops = {clearAvx2, andNotOrAvx2, orTileAvx2};

// --- AVX-512 kernels (512-bit, 8 words per vector) ------------------

__attribute__((target("avx512f"))) void
clearAvx512(std::uint64_t *dst, std::size_t n)
{
    const __m512i z = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(dst + i, z);
    for (; i < n; ++i)
        dst[i] = 0;
}

// GCC 12's _mm512_andnot_si512 seeds a masked builtin with
// _mm512_undefined_*(), which -O3 reports as an uninitialized read;
// the kernel below uses plain AND/XOR instead, so Release builds stay
// warning-free.

__attribute__((target("avx512f"))) void
andNotOrAvx512(std::uint64_t *dst, const std::uint64_t *drop,
               const std::uint64_t *set, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i vd = _mm512_loadu_si512(dst + i);
        const __m512i vm = _mm512_loadu_si512(drop + i);
        const __m512i vs = _mm512_loadu_si512(set + i);
        // vd & ~vm == vd ^ (vd & vm)
        const __m512i kept =
            _mm512_xor_si512(vd, _mm512_and_si512(vd, vm));
        _mm512_storeu_si512(dst + i, _mm512_or_si512(kept, vs));
    }
    for (; i < n; ++i)
        dst[i] = (dst[i] & ~drop[i]) | set[i];
}

__attribute__((target("avx2"))) void
orTileAvx512(std::uint64_t *dst, const std::uint64_t *src)
{
    // A tile is 32 bytes — half an AVX-512 vector — so the 256-bit OR
    // is the right width here too (and avoids 512-bit frequency
    // licensing on a hot single-tile operation).
    orTileAvx2(dst, src);
}

constexpr SimdOps kAvx512Ops = {clearAvx512, andNotOrAvx512,
                                orTileAvx512};

#endif // PAP_SIMD_X86

SimdLevel
probeSimdLevel()
{
#if PAP_SIMD_X86
    // No kernel uses VPOPCNTDQ; requiring it keeps the AVX-512 table on
    // the hosts it was measured on (AVX-512F-only hosts run AVX2).
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq"))
        return SimdLevel::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

} // namespace

SimdLevel
detectSimdLevel()
{
    static const SimdLevel level = probeSimdLevel();
    return level;
}

Result<SimdLevel>
parseSimdLevel(std::string_view text)
{
    if (text == "off" || text == "scalar")
        return SimdLevel::Scalar;
    if (text == "avx2")
        return SimdLevel::Avx2;
    if (text == "avx512")
        return SimdLevel::Avx512;
    if (text == "auto")
        return detectSimdLevel();
    return Status::error(ErrorCode::InvalidInput,
                         "unknown simd level '", std::string(text),
                         "' (expected off, scalar, avx2, avx512, or "
                         "auto)");
}

Result<SimdLevel>
resolveSimdLevel()
{
    SimdLevel level = detectSimdLevel();
    if (const char *env = std::getenv("PAP_SIMD")) {
        const Result<SimdLevel> parsed = parseSimdLevel(env);
        if (!parsed.ok())
            return Status::error(ErrorCode::InvalidInput, "PAP_SIMD: ",
                                 parsed.status().message());
        // A requested level the host cannot execute clamps down, so a
        // pinned CI value stays portable across runners.
        level = std::min(parsed.value(), detectSimdLevel());
    }
    return level;
}

SimdLevel
currentSimdLevel()
{
    const Result<SimdLevel> resolved = resolveSimdLevel();
    return resolved.ok() ? resolved.value() : detectSimdLevel();
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    }
    PAP_PANIC("invalid SimdLevel ", static_cast<int>(level));
}

const SimdOps &
simdOps(SimdLevel level)
{
    if (level > detectSimdLevel())
        level = detectSimdLevel();
#if PAP_SIMD_X86
    switch (level) {
    case SimdLevel::Avx512:
        return kAvx512Ops;
    case SimdLevel::Avx2:
        return kAvx2Ops;
    case SimdLevel::Scalar:
        break;
    }
#else
    (void)level;
#endif
    return kScalarOps;
}

} // namespace pap
