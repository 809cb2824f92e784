/**
 * @file
 * Shared test plumbing: per-test temp paths. `ctest -j` runs every
 * discovered test in its own process, concurrently, so two fixtures
 * writing the same fixed temp name resume, clobber or remove each
 * other's checkpoints. Every on-disk fixture takes its path from here.
 * Also a checkpoint header patch for the old-version tests.
 */

#ifndef PAP_TESTS_TEST_UTIL_H
#define PAP_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

namespace pap {

/**
 * TempDir()/<suite>.<test>.<pid>.<name>: a path no other test, and no
 * other run of this test, uses at the same time. Parameterized test
 * names have their '/' replaced so the path stays one directory entry.
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string id = info ? std::string(info->test_suite_name()) + "." +
                                info->name()
                          : std::string("no_test");
    for (char &c : id)
        if (c == '/')
            c = '_';
    return ::testing::TempDir() + id + "." + std::to_string(::getpid()) +
           "." + name;
}

/** A fresh, empty directory at uniqueTempPath(), removed on scope exit. */
class UniqueTempDir
{
  public:
    explicit UniqueTempDir(const std::string &name)
        : path_(uniqueTempPath(name))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~UniqueTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    UniqueTempDir(const UniqueTempDir &) = delete;
    UniqueTempDir &operator=(const UniqueTempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    const std::string path_;
};

/**
 * Overwrite the version field of the checkpoint at @p path: the
 * little-endian u32 after the 8-byte magic (docs/file-formats.md).
 * The CRC covers only the payload, so the file stays otherwise valid.
 */
inline void
patchCheckpointVersion(const std::string &path, std::uint32_t version)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot open " << path;
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>((version >> (8 * i)) & 0xFFu);
    file.seekp(8);
    file.write(bytes, 4);
    ASSERT_TRUE(file.good()) << "cannot patch " << path;
}

} // namespace pap

#endif // PAP_TESTS_TEST_UTIL_H
