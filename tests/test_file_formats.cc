/**
 * @file
 * Byte pins of the two on-disk formats, PAPCKPT v2 (runPap and serve
 * checkpoints) and PAPMANJ v1 (serve's session manifest). Files
 * written by an earlier build must still load, so a fixed frontier
 * and a fixed journal must keep producing the same bytes: the sizes
 * and CRCs below were taken from the build before the two formats
 * moved onto common/durable_file.h. A deliberate format change bumps
 * the version and these constants together (docs/file-formats.md).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/durable_file.h"
#include "pap/exec/checkpoint.h"
#include "serve/manifest.h"
#include "test_util.h"

namespace pap {
namespace {

/** Size and CRC-32 of the file at @p path. */
std::pair<std::size_t, std::uint32_t>
sizeAndCrc(const std::string &path)
{
    const auto bytes = readWholeFile(path);
    EXPECT_TRUE(bytes.has_value()) << "cannot read " << path;
    if (!bytes)
        return {0, 0};
    return {bytes->size(), crc32(bytes->data(), bytes->size())};
}

/** A frontier that sets every field the format carries. */
exec::CheckpointFrontier
fixedFrontier()
{
    exec::CheckpointFrontier f;
    f.identity = 0x0123456789ABCDEFull;
    f.nextSegment = 2;
    f.finalActive = {1, 5, 9, 70000};
    f.reports = {{17, 3, 1}, {4096, 9, 0xFFFFFFFFu}};
    f.papEntries = 12345;
    f.flowTransitions = 987654321ull;
    f.flowSymbolCycles = 55555;
    f.segmentsRetried = 1;
    f.segmentsRecovered = 1;
    f.rngState = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
    exec::SegmentCheckpoint golden;
    golden.timing.segLen = 4096;
    golden.timing.totalEntries = 2;
    golden.timing.flows = {{FlowKind::Golden, 4096, true}};
    f.segments.push_back(golden);
    exec::SegmentCheckpoint enumerated;
    enumerated.timing.segLen = 2048;
    enumerated.timing.totalEntries = 7;
    enumerated.timing.aliveEnumFlowsAtEnd = 1;
    enumerated.timing.hasEnumFlows = true;
    enumerated.timing.flows = {{FlowKind::Asg, 2048, true},
                               {FlowKind::Enum, 2048, true},
                               {FlowKind::Enum, 16, false}};
    enumerated.deactivated = 1;
    enumerated.ranToEnd = 1;
    enumerated.truePaths = 3;
    enumerated.recovered = 1;
    f.segments.push_back(enumerated);
    return f;
}

TEST(FileFormats, Crc32IsTheStandardCheckValue)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926u);
}

TEST(FileFormats, CheckpointBytesArePinned)
{
    const std::string path = uniqueTempPath("pin.papckpt");
    ASSERT_TRUE(exec::saveCheckpoint(path, fixedFrontier()).ok());
    const auto [size, crc] = sizeAndCrc(path);
    EXPECT_EQ(size, 288u);
    EXPECT_EQ(crc, 0x15E991E7u);

    auto loaded = exec::loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().finalActive, fixedFrontier().finalActive);
    EXPECT_EQ(loaded.value().segments.size(), 2u);
    exec::removeCheckpoint(path);
}

TEST(FileFormats, ManifestBytesArePinned)
{
    const UniqueTempDir dir("pin_manifest");
    const std::string path = dir.path() + "/" + serve::kManifestFileName;
    {
        auto journal = serve::ManifestJournal::open(path);
        ASSERT_TRUE(journal.ok()) << journal.status().toString();
        serve::ManifestRecord admit;
        admit.kind = serve::ManifestRecordKind::Admit;
        admit.identity = 0xABCDEF01u;
        admit.generation = 3;
        admit.tenant = "tenant";
        admit.key = "stream-1";
        ASSERT_TRUE(journal.value().append(admit).ok());
        serve::ManifestRecord ckpt;
        ckpt.kind = serve::ManifestRecordKind::CheckpointWritten;
        ckpt.symbols = 8192;
        ckpt.chunks = 4;
        ckpt.tenant = "tenant";
        ckpt.key = "stream-1";
        ASSERT_TRUE(journal.value().append(ckpt).ok());
        serve::ManifestRecord done;
        done.kind = serve::ManifestRecordKind::Complete;
        done.tenant = "tenant";
        done.key = "stream-0";
        ASSERT_TRUE(journal.value().append(done).ok());
        serve::ManifestRecord swap;
        swap.kind = serve::ManifestRecordKind::SwapGeneration;
        swap.generation = 5;
        ASSERT_TRUE(journal.value().append(swap).ok());
    }
    const auto [journal_size, journal_crc] = sizeAndCrc(path);
    EXPECT_EQ(journal_size, 154u);
    EXPECT_EQ(journal_crc, 0x90A58F9Fu);

    auto replay = serve::replayManifest(path);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay.value().records, 4u);
    ASSERT_TRUE(serve::compactManifest(path, replay.value()).ok());
    const auto [compact_size, compact_crc] = sizeAndCrc(path);
    EXPECT_EQ(compact_size, 123u);
    EXPECT_EQ(compact_crc, 0x6834DE70u);
}

} // namespace
} // namespace pap
