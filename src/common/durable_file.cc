#include "common/durable_file.h"

#include <array>
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

namespace pap {

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::optional<std::vector<std::uint8_t>>
readWholeFile(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp)
        return std::nullopt;
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), fp)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(fp);
    return bytes;
}

bool
syncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

Status
replaceFileDurably(const std::string &path, const std::string &tmp,
                   const std::vector<std::uint8_t> &bytes,
                   const char *what)
{
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (!fp)
        return Status::error(ErrorCode::InvalidInput, "cannot open ",
                             what, " temp file '", tmp, "' for writing");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), fp);
    // fflush drains stdio's buffer into the kernel; fsync makes the
    // bytes durable. Both must succeed before the rename publishes
    // the file, or a crash can expose a file with no data.
    const bool flushed = std::fflush(fp) == 0;
    const bool synced = flushed && ::fsync(::fileno(fp)) == 0;
    std::fclose(fp);
    if (written != bytes.size() || !synced) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::InvalidInput, "short write on ",
                             what, " temp file '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::InvalidInput, "cannot rename ",
                             what, " into place at '", path, "'");
    }
    if (!syncParentDir(path))
        return Status::error(ErrorCode::InvalidInput, "cannot fsync ",
                             what, " directory of '", path, "'");
    return Status();
}

} // namespace pap
