/**
 * @file
 * The pieces both on-disk formats share, the PAPCKPT checkpoint
 * (pap/exec/checkpoint.h) and the PAPMANJ session manifest
 * (serve/manifest.h): CRC-32 framing, fixed-width little-endian
 * encoding, whole-file reads, and the crash-consistent replace (write
 * a temp file, flush and fsync it, rename it over the target, fsync
 * the directory). The formats themselves are documented in
 * docs/file-formats.md.
 */

#ifndef PAP_COMMON_DURABLE_FILE_H
#define PAP_COMMON_DURABLE_FILE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace pap {

/** CRC-32 (IEEE 802.3, reflected) over a byte buffer. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/** Append fixed-width little-endian integers to a byte buffer. */
struct ByteWriter
{
    std::vector<std::uint8_t> buf;

    void u8(std::uint8_t v) { put(v, 1); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }

    /** A u32 length, then the bytes. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t len)
    {
        // Not a range insert: GCC 12 at -O3 flags one into a still
        // empty buffer (-Wstringop-overflow), which fails -Werror.
        const std::size_t at = buf.size();
        buf.resize(at + len);
        if (len > 0)
            std::memcpy(buf.data() + at, data, len);
    }

    /** The low @p n bytes of @p v, least significant first. */
    void
    put(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
};

/** Bounds-checked little-endian reads; sets fail on truncation. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    bool fail = false;

    bool
    need(std::size_t n)
    {
        if (size - pos < n) {
            fail = true;
            return false;
        }
        return true;
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }

    /** A u32 length, then the bytes (empty on truncation). */
    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (fail || !need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }

    /** @p n bytes, least significant first (0 on truncation). */
    std::uint64_t
    get(int n)
    {
        if (!need(static_cast<std::size_t>(n)))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }
};

/** Every byte of the file at @p path; nullopt when it cannot be opened. */
std::optional<std::vector<std::uint8_t>>
readWholeFile(const std::string &path);

/**
 * fsync the directory containing @p path, making a just-renamed entry
 * durable: the entry lives in the parent, and a crash before the
 * parent reaches disk forgets the rename. False on any error.
 */
bool syncParentDir(const std::string &path);

/**
 * Replace @p path with @p bytes so that a crash at any point leaves
 * either the old file or the new one: write them to @p tmp, fflush
 * and fsync it, rename it over @p path, then fsync the directory.
 * @p what names the file in error messages ("checkpoint"). Returns
 * InvalidInput on I/O trouble instead of aborting, and removes
 * @p tmp when the rename did not happen.
 */
Status replaceFileDurably(const std::string &path, const std::string &tmp,
                          const std::vector<std::uint8_t> &bytes,
                          const char *what);

} // namespace pap

#endif // PAP_COMMON_DURABLE_FILE_H
