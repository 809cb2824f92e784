#include "pap/exec/checkpoint.h"

#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {
namespace exec {

namespace {

/**
 * fsync the directory containing @p path, making a just-renamed entry
 * durable: rename() orders the data (already fsynced through the file
 * fd) but the *directory entry* lives in the parent, and a crash
 * before the parent inode reaches disk forgets the rename. Errors are
 * reported so callers can refuse to advance past an undurable
 * frontier.
 */
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

constexpr char kMagic[8] = {'P', 'A', 'P', 'C', 'K', 'P', 'T', '\0'};

/** CRC-32 (IEEE 802.3, reflected) over a byte buffer. */
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

/** Append fixed-width little-endian integers to a byte buffer. */
struct Writer
{
    std::vector<std::uint8_t> buf;

    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
};

/** Bounds-checked little-endian reads; sets fail on truncation. */
struct Reader
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

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data[pos++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }
};

void
serializeFrontier(const CheckpointFrontier &f, Writer &w)
{
    w.u64(f.identity);
    w.u32(f.nextSegment);
    w.u64(f.papEntries);
    w.u64(f.flowTransitions);
    w.u64(f.flowSymbolCycles);
    w.u32(f.segmentsRetried);
    w.u32(f.segmentsRecovered);
    for (const std::uint64_t s : f.rngState)
        w.u64(s);
    w.u32(static_cast<std::uint32_t>(f.finalActive.size()));
    for (const StateId q : f.finalActive)
        w.u32(q);
    w.u64(f.reports.size());
    for (const ReportEvent &e : f.reports) {
        w.u64(e.offset);
        w.u32(e.state);
        w.u32(e.code);
    }
    w.u32(static_cast<std::uint32_t>(f.segments.size()));
    for (const SegmentCheckpoint &s : f.segments) {
        w.u64(s.timing.segLen);
        w.u64(s.timing.totalEntries);
        w.u32(s.timing.aliveEnumFlowsAtEnd);
        w.u8(s.timing.hasEnumFlows ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(s.timing.flows.size()));
        for (const FlowTimingInfo &fl : s.timing.flows) {
            w.u8(static_cast<std::uint8_t>(fl.kind));
            w.u64(fl.symbolsProcessed);
            w.u8(fl.isTrue ? 1 : 0);
        }
        w.u32(s.deactivated);
        w.u32(s.converged);
        w.u32(s.ranToEnd);
        w.u32(s.truePaths);
        w.u8(s.recovered);
    }
}

bool
deserializeFrontier(Reader &r, CheckpointFrontier &f)
{
    f.identity = r.u64();
    f.nextSegment = r.u32();
    f.papEntries = r.u64();
    f.flowTransitions = r.u64();
    f.flowSymbolCycles = r.u64();
    f.segmentsRetried = r.u32();
    f.segmentsRecovered = r.u32();
    for (std::uint64_t &s : f.rngState)
        s = r.u64();
    const std::uint32_t n_active = r.u32();
    if (r.fail || n_active > r.size)
        return false;
    f.finalActive.resize(n_active);
    for (StateId &q : f.finalActive)
        q = r.u32();
    const std::uint64_t n_reports = r.u64();
    if (r.fail || n_reports > r.size)
        return false;
    f.reports.resize(n_reports);
    for (ReportEvent &e : f.reports) {
        e.offset = r.u64();
        e.state = r.u32();
        e.code = r.u32();
    }
    const std::uint32_t n_segs = r.u32();
    if (r.fail || n_segs > r.size)
        return false;
    f.segments.resize(n_segs);
    for (SegmentCheckpoint &s : f.segments) {
        s.timing.segLen = r.u64();
        s.timing.totalEntries = r.u64();
        s.timing.aliveEnumFlowsAtEnd = r.u32();
        s.timing.hasEnumFlows = r.u8() != 0;
        const std::uint32_t n_flows = r.u32();
        if (r.fail || n_flows > r.size)
            return false;
        s.timing.flows.resize(n_flows);
        for (FlowTimingInfo &fl : s.timing.flows) {
            fl.kind = static_cast<FlowKind>(r.u8());
            fl.symbolsProcessed = r.u64();
            fl.isTrue = r.u8() != 0;
        }
        s.deactivated = r.u32();
        s.converged = r.u32();
        s.ranToEnd = r.u32();
        s.truePaths = r.u32();
        s.recovered = r.u8();
    }
    return !r.fail;
}

} // namespace

Status
saveCheckpoint(const std::string &path,
               const CheckpointFrontier &frontier)
{
    PAP_TRACE_SCOPE("exec.checkpoint.save");
    Writer payload;
    serializeFrontier(frontier, payload);

    Writer file;
    file.buf.insert(file.buf.end(), kMagic, kMagic + sizeof(kMagic));
    file.u32(kCheckpointVersion);
    file.u64(payload.buf.size());
    file.buf.insert(file.buf.end(), payload.buf.begin(),
                    payload.buf.end());
    file.u32(crc32(payload.buf.data(), payload.buf.size()));

    const std::string tmp = path + ".tmp";
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (!fp)
        return Status::error(ErrorCode::InvalidInput,
                             "cannot open checkpoint temp file '", tmp,
                             "' for writing");
    const std::size_t written =
        std::fwrite(file.buf.data(), 1, file.buf.size(), fp);
    // fflush drains stdio's buffer into the kernel; fsync makes the
    // bytes durable. Both must succeed before the rename publishes
    // the file, or a crash can expose a checkpoint with no data.
    const bool flushed = std::fflush(fp) == 0;
    const bool synced = flushed && ::fsync(::fileno(fp)) == 0;
    std::fclose(fp);
    if (written != file.buf.size() || !synced) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::InvalidInput,
                             "short write on checkpoint temp file '",
                             tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::InvalidInput,
                             "cannot rename checkpoint into place at '",
                             path, "'");
    }
    if (!syncParentDir(path))
        return Status::error(ErrorCode::InvalidInput,
                             "cannot fsync checkpoint directory of '",
                             path, "'");
    obs::metrics().add("exec.checkpoint.saves");
    return Status();
}

Result<CheckpointFrontier>
loadCheckpoint(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp)
        return Status::error(ErrorCode::InvalidInput,
                             "no checkpoint at '", path, "'");
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), fp)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(fp);

    const auto corrupt = [&](const char *why) {
        obs::metrics().add("exec.checkpoint.corrupt");
        return Status::error(ErrorCode::CheckpointCorrupt,
                             "checkpoint '", path, "' is corrupt: ",
                             why);
    };

    constexpr std::size_t header = sizeof(kMagic) + 4 + 8;
    if (bytes.size() < header + 4)
        return corrupt("file truncated");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return corrupt("bad magic");
    Reader head{bytes.data() + sizeof(kMagic),
                bytes.size() - sizeof(kMagic)};
    const std::uint32_t version = head.u32();
    if (version != kCheckpointVersion)
        return corrupt("unsupported version");
    const std::uint64_t payload_len = head.u64();
    if (payload_len != bytes.size() - header - 4)
        return corrupt("payload length mismatch");

    const std::uint8_t *payload = bytes.data() + header;
    Reader crc_reader{payload + payload_len, 4};
    const std::uint32_t stored_crc = crc_reader.u32();
    if (crc32(payload, payload_len) != stored_crc)
        return corrupt("CRC mismatch");

    CheckpointFrontier frontier;
    Reader r{payload, static_cast<std::size_t>(payload_len)};
    if (!deserializeFrontier(r, frontier) || r.pos != payload_len)
        return corrupt("malformed payload");
    if (frontier.segments.size() != frontier.nextSegment)
        return corrupt("segment record count mismatch");
    return frontier;
}

void
removeCheckpoint(const std::string &path)
{
    std::remove(path.c_str());
}

} // namespace exec
} // namespace pap
