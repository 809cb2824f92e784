/**
 * @file
 * Exclusive ownership of on-disk state. A FileLock holds an advisory
 * flock(2) on a lock file for its lifetime, so two runs resuming the
 * same checkpoint, or two servers sharing one checkpoint directory,
 * cannot write the same temp file or append to the same manifest: the
 * second one fails with ErrorCode::LockHeld. flock locks belong to the
 * open file description, so two acquisitions in one process conflict
 * as well.
 *
 * The holder unlinks the lock file before releasing it. An acquirer
 * that locked a file someone else just unlinked notices that the path
 * no longer names its inode and tries again, so a released lock file
 * never lingers and never admits two holders.
 */

#ifndef PAP_COMMON_FILE_LOCK_H
#define PAP_COMMON_FILE_LOCK_H

#include <string>
#include <utility>

#include "common/error.h"

namespace pap {

/** An exclusive advisory lock on a file, held until destruction. */
class FileLock
{
  public:
    /**
     * Lock @p path, creating it if needed. LockHeld when another
     * holder has it; InvalidInput when the file cannot be created.
     */
    static Result<FileLock> acquire(const std::string &path);

    FileLock(FileLock &&other) noexcept;
    FileLock &operator=(FileLock &&other) = delete;
    ~FileLock();

  private:
    FileLock(int fd, std::string path) : fd_(fd), path_(std::move(path))
    {
    }

    int fd_ = -1;
    std::string path_;
};

} // namespace pap

#endif // PAP_COMMON_FILE_LOCK_H
