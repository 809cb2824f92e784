#include "pap/exec/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "common/durable_file.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {
namespace exec {

namespace {

constexpr char kMagic[8] = {'P', 'A', 'P', 'C', 'K', 'P', 'T', '\0'};

void
serializeFrontier(const CheckpointFrontier &f, ByteWriter &w)
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
deserializeFrontier(ByteReader &r, CheckpointFrontier &f)
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
    ByteWriter payload;
    serializeFrontier(frontier, payload);

    ByteWriter file;
    file.bytes(kMagic, sizeof(kMagic));
    file.u32(kCheckpointVersion);
    file.u64(payload.buf.size());
    file.bytes(payload.buf.data(), payload.buf.size());
    file.u32(crc32(payload.buf.data(), payload.buf.size()));

    const Status saved =
        replaceFileDurably(path, path + ".tmp", file.buf, "checkpoint");
    if (saved.ok())
        obs::metrics().add("exec.checkpoint.saves");
    return saved;
}

Result<CheckpointFrontier>
loadCheckpoint(const std::string &path)
{
    const auto read = readWholeFile(path);
    if (!read)
        return Status::error(ErrorCode::InvalidInput,
                             "no checkpoint at '", path, "'");
    const std::vector<std::uint8_t> &bytes = *read;

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
    ByteReader head{bytes.data() + sizeof(kMagic),
                    bytes.size() - sizeof(kMagic)};
    const std::uint32_t version = head.u32();
    if (version != kCheckpointVersion)
        return corrupt("unsupported version");
    const std::uint64_t payload_len = head.u64();
    if (payload_len != bytes.size() - header - 4)
        return corrupt("payload length mismatch");

    const std::uint8_t *payload = bytes.data() + header;
    ByteReader crc_reader{payload + payload_len, 4};
    const std::uint32_t stored_crc = crc_reader.u32();
    if (crc32(payload, payload_len) != stored_crc)
        return corrupt("CRC mismatch");

    CheckpointFrontier frontier;
    ByteReader r{payload, static_cast<std::size_t>(payload_len)};
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
