/**
 * @file
 * Remaining I/O and logging coverage: file-based NFA/trace round
 * trips, log-level gating, and engine scratch epoch behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>

#include "common/logging.h"
#include "engine/functional_engine.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "nfa/nfa_io.h"

namespace pap {
namespace {

class TempDir
{
  public:
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("papsim_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string
    file(const char *name) const
    {
        return (path / name).string();
    }

  private:
    std::filesystem::path path;
};

TEST(IoMisc, NfaFileRoundTrip)
{
    TempDir dir;
    const Nfa nfa = compileRuleset({{"ab+c", 5}}, "file-rt");
    const std::string path = dir.file("m.nfa");
    saveNfaFile(nfa, path);
    const Nfa back = loadAutomatonFile(path).value();
    EXPECT_EQ(back.size(), nfa.size());
    EXPECT_EQ(back.name(), "file-rt");
}

TEST(IoMisc, MalformedAutomatonFilesAreInvalidInput)
{
    TempDir dir;
    const auto write = [&](const char *name, const char *text) {
        const std::string path = dir.file(name);
        std::ofstream(path) << text;
        return path;
    };
    const std::string paths[] = {
        write("label.nfa", "papsim-nfa 1\nname bad\nstates 1\n"
                           "s 0 abc 1 0 0\nend\n"),
        write("count.nfa", "papsim-nfa 1\nname bad\nstates many\nend\n"),
        write("set.anml",
              "<anml-network id=\"bad\">\n"
              "<state-transition-element id=\"q0\" symbol-set=\"[a\"\n"
              "    start=\"all-input\"/>\n</anml-network>\n"),
        dir.file("missing.nfa"),
    };
    for (const std::string &path : paths) {
        const Result<Nfa> loaded = loadAutomatonFile(path);
        ASSERT_FALSE(loaded.ok()) << path;
        EXPECT_EQ(loaded.status().code(), ErrorCode::InvalidInput) << path;
        EXPECT_NE(loaded.status().message().find(path), std::string::npos)
            << loaded.status().toString();
    }
}

TEST(IoMisc, TraceFileRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("t.bin");
    {
        std::ofstream os(path, std::ios::binary);
        const unsigned char bytes[] = {0, 10, 200, 255, 'a'};
        os.write(reinterpret_cast<const char *>(bytes), sizeof(bytes));
    }
    const InputTrace t = InputTrace::fromFile(path);
    ASSERT_EQ(t.size(), 5u);
    EXPECT_EQ(t[0], 0);
    EXPECT_EQ(t[2], 200);
    EXPECT_EQ(t[3], 255);
    EXPECT_EQ(t[4], 'a');
}

TEST(IoMisc, LogLevelGatesOutput)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    warn("this must not crash while silenced");
    inform("nor this");
    setLogLevel(LogLevel::Debug);
    EXPECT_GE(logLevel(), LogLevel::Info);
    setLogLevel(saved);
}

TEST(IoMisc, ScratchEpochIsolationAcrossManyResets)
{
    // Repeated resets must never let stale marks suppress seeds.
    const Nfa nfa = compileRuleset({{"abc", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    EngineScratch scratch(cnfa.size());
    FunctionalEngine a(cnfa, false, &scratch);
    FunctionalEngine b(cnfa, false, &scratch);
    for (int i = 0; i < 1000; ++i) {
        a.reset({1}, 0);
        b.reset({1, 2}, 0);
        EXPECT_EQ(a.activeCount(), 1u);
        EXPECT_EQ(b.activeCount(), 2u);
    }
}

} // namespace
} // namespace pap
