#include "serve/manifest.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/durable_file.h"
#include "obs/metrics.h"
#include "pap/fault_injector.h"

namespace pap {
namespace serve {

namespace {

constexpr char kMagic[8] = {'P', 'A', 'P', 'M', 'A', 'N', 'J', '\0'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4;

/** Serialize a record's payload (everything inside the CRC frame). */
void
serializePayload(const ManifestRecord &rec, ByteWriter &w)
{
    switch (rec.kind) {
      case ManifestRecordKind::Admit:
        w.u64(rec.identity);
        w.u64(rec.generation);
        w.str(rec.tenant);
        w.str(rec.key);
        break;
      case ManifestRecordKind::CheckpointWritten:
        w.u64(rec.symbols);
        w.u64(rec.chunks);
        w.str(rec.tenant);
        w.str(rec.key);
        break;
      case ManifestRecordKind::Complete:
        w.str(rec.tenant);
        w.str(rec.key);
        break;
      case ManifestRecordKind::SwapGeneration:
        w.u64(rec.generation);
        break;
    }
}

/** Append @p rec's frame to @p out:
    [kind][len][payload][crc(kind+len+payload)]. */
void
frameRecord(const ManifestRecord &rec, ByteWriter &out)
{
    ByteWriter payload;
    serializePayload(rec, payload);
    const std::size_t start = out.buf.size();
    out.u8(static_cast<std::uint8_t>(rec.kind));
    out.u32(static_cast<std::uint32_t>(payload.buf.size()));
    out.bytes(payload.buf.data(), payload.buf.size());
    out.u32(crc32(out.buf.data() + start, out.buf.size() - start));
}

/** Parse one payload; false when malformed for its kind. */
bool
parsePayload(std::uint8_t kind_byte, const std::uint8_t *payload,
             std::size_t len, ManifestRecord &rec)
{
    if (kind_byte < 1 || kind_byte > 4)
        return false;
    rec.kind = static_cast<ManifestRecordKind>(kind_byte);
    ByteReader r{payload, len};
    switch (rec.kind) {
      case ManifestRecordKind::Admit:
        rec.identity = r.u64();
        rec.generation = r.u64();
        rec.tenant = r.str();
        rec.key = r.str();
        break;
      case ManifestRecordKind::CheckpointWritten:
        rec.symbols = r.u64();
        rec.chunks = r.u64();
        rec.tenant = r.str();
        rec.key = r.str();
        break;
      case ManifestRecordKind::Complete:
        rec.tenant = r.str();
        rec.key = r.str();
        break;
      case ManifestRecordKind::SwapGeneration:
        rec.generation = r.u64();
        break;
    }
    return !r.fail && r.pos == len;
}

} // namespace

ManifestJournal::~ManifestJournal()
{
    close();
}

ManifestJournal::ManifestJournal(ManifestJournal &&other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_),
      faults_(other.faults_)
{
    other.fd_ = -1;
    other.faults_ = nullptr;
}

ManifestJournal &
ManifestJournal::operator=(ManifestJournal &&other) noexcept
{
    if (this == &other)
        return *this;
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    faults_ = other.faults_;
    other.fd_ = -1;
    other.faults_ = nullptr;
    return *this;
}

void
ManifestJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Result<ManifestJournal>
ManifestJournal::open(const std::string &path, FaultInjector *faults)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return Status::error(ErrorCode::InvalidInput,
                             "cannot open session manifest '", path,
                             "' for appending");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return Status::error(ErrorCode::InvalidInput,
                             "cannot stat session manifest '", path,
                             "'");
    }
    if (st.st_size == 0) {
        ByteWriter header;
        header.bytes(kMagic, sizeof(kMagic));
        header.u32(kManifestVersion);
        if (::write(fd, header.buf.data(), header.buf.size()) !=
                static_cast<ssize_t>(header.buf.size()) ||
            ::fsync(fd) != 0 || !syncParentDir(path)) {
            ::close(fd);
            return Status::error(ErrorCode::InvalidInput,
                                 "cannot initialize session manifest '",
                                 path, "'");
        }
    } else if (st.st_size < static_cast<off_t>(kHeaderSize)) {
        // Shorter than a header yet non-empty: a crash landed inside
        // the very first write. Recovery compacts before reopening,
        // so refuse rather than append after garbage.
        ::close(fd);
        return Status::error(ErrorCode::CheckpointCorrupt,
                             "session manifest '", path,
                             "' has a truncated header");
    }
    ManifestJournal journal;
    journal.path_ = path;
    journal.fd_ = fd;
    journal.faults_ = faults;
    return journal;
}

Status
ManifestJournal::append(const ManifestRecord &record)
{
    if (fd_ < 0)
        return Status::error(ErrorCode::InvalidInput,
                             "session manifest is not open");
    ByteWriter framed;
    frameRecord(record, framed);
    const std::vector<std::uint8_t> &frame = framed.buf;
    std::size_t keep = 0;
    if (faults_ && faults_->onManifestAppend(frame.size(), keep)) {
        // Model the crash-mid-write: a prefix of the frame reaches
        // the disk, then "the process dies" — the record is lost and
        // replay must stop at this torn tail.
        if (keep > 0)
            (void)::write(fd_, frame.data(), keep);
        (void)::fsync(fd_);
        return Status::error(ErrorCode::InvalidInput,
                             "manifest append torn by fault injection");
    }
    if (::write(fd_, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size()))
        return Status::error(ErrorCode::InvalidInput,
                             "short write appending to session "
                             "manifest '",
                             path_, "'");
    if (::fsync(fd_) != 0)
        return Status::error(ErrorCode::InvalidInput,
                             "cannot fsync session manifest '", path_,
                             "'");
    obs::metrics().add("serve.manifest.appends");
    return Status();
}

Result<ManifestReplay>
replayManifest(const std::string &path)
{
    ManifestReplay replay;
    const auto read = readWholeFile(path);
    if (!read)
        return replay; // first boot: nothing to replay
    const std::vector<std::uint8_t> &bytes = *read;

    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return Status::error(ErrorCode::CheckpointCorrupt,
                             "session manifest '", path,
                             "' has a bad header");
    ByteReader head{bytes.data() + sizeof(kMagic), 4};
    if (head.u32() != kManifestVersion)
        return Status::error(ErrorCode::CheckpointCorrupt,
                             "session manifest '", path,
                             "' has an unsupported version");

    std::size_t pos = kHeaderSize;
    while (pos < bytes.size()) {
        // Frame prefix: kind + length. Anything short of a whole,
        // CRC-valid frame is a torn tail — stop replaying, keep what
        // we have. Appends are ordered (one fsynced write each), so
        // nothing after a torn frame can be a record we ever
        // acknowledged.
        if (bytes.size() - pos < 5) {
            replay.torn = 1;
            break;
        }
        const std::uint8_t kind_byte = bytes[pos];
        ByteReader len_reader{bytes.data() + pos + 1, 4};
        const std::uint32_t len = len_reader.u32();
        if (bytes.size() - pos < 5 + static_cast<std::size_t>(len) + 4) {
            replay.torn = 1;
            break;
        }
        const std::uint8_t *payload = bytes.data() + pos + 5;
        ByteReader crc_reader{payload + len, 4};
        const std::uint32_t stored = crc_reader.u32();
        if (crc32(bytes.data() + pos, 5 + len) != stored) {
            replay.torn = 1;
            break;
        }
        ManifestRecord rec;
        if (!parsePayload(kind_byte, payload, len, rec)) {
            replay.torn = 1;
            break;
        }
        pos += 5 + len + 4;
        ++replay.records;

        const auto coord = std::make_pair(rec.tenant, rec.key);
        switch (rec.kind) {
          case ManifestRecordKind::Admit: {
            auto &live = replay.live[coord];
            live.identity = rec.identity;
            live.generation = rec.generation;
            replay.maxGeneration =
                std::max(replay.maxGeneration, rec.generation);
            break;
          }
          case ManifestRecordKind::CheckpointWritten: {
            const auto it = replay.live.find(coord);
            if (it != replay.live.end()) {
                it->second.symbols = rec.symbols;
                it->second.chunks = rec.chunks;
                it->second.checkpointed = true;
            }
            break;
          }
          case ManifestRecordKind::Complete:
            if (replay.live.erase(coord) > 0)
                ++replay.completed;
            break;
          case ManifestRecordKind::SwapGeneration:
            replay.maxGeneration =
                std::max(replay.maxGeneration, rec.generation);
            break;
        }
    }
    return replay;
}

Status
compactManifest(const std::string &path, const ManifestReplay &replay)
{
    ByteWriter file;
    file.bytes(kMagic, sizeof(kMagic));
    file.u32(kManifestVersion);
    // Pin the generation floor first so a later torn tail can never
    // roll generations backwards across a double crash.
    {
        ManifestRecord rec;
        rec.kind = ManifestRecordKind::SwapGeneration;
        rec.generation = replay.maxGeneration;
        frameRecord(rec, file);
    }
    for (const auto &entry : replay.live) {
        ManifestRecord admit;
        admit.kind = ManifestRecordKind::Admit;
        admit.identity = entry.second.identity;
        admit.generation = entry.second.generation;
        admit.tenant = entry.first.first;
        admit.key = entry.first.second;
        frameRecord(admit, file);
        if (entry.second.checkpointed) {
            ManifestRecord ckpt;
            ckpt.kind = ManifestRecordKind::CheckpointWritten;
            ckpt.symbols = entry.second.symbols;
            ckpt.chunks = entry.second.chunks;
            ckpt.tenant = entry.first.first;
            ckpt.key = entry.first.second;
            frameRecord(ckpt, file);
        }
    }

    return replaceFileDurably(path, path + ".compact.tmp", file.buf,
                              "manifest");
}

} // namespace serve
} // namespace pap
