#include "common/file_lock.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pap {

Result<FileLock>
FileLock::acquire(const std::string &path)
{
    for (;;) {
        const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                              0644);
        if (fd < 0)
            return Status::error(ErrorCode::InvalidInput,
                                 "cannot create lock file '", path,
                                 "': ", std::strerror(errno));
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            const int err = errno;
            ::close(fd);
            if (err == EWOULDBLOCK)
                return Status::error(ErrorCode::LockHeld, "'", path,
                                     "' is locked by another run or "
                                     "server");
            return Status::error(ErrorCode::InvalidInput,
                                 "cannot lock '", path,
                                 "': ", std::strerror(err));
        }
        // The previous holder may have unlinked the file between our
        // open and our flock; then we hold a lock nobody else can see.
        struct stat held = {};
        struct stat named = {};
        if (::fstat(fd, &held) == 0 && ::stat(path.c_str(), &named) == 0 &&
            held.st_dev == named.st_dev && held.st_ino == named.st_ino)
            return FileLock(fd, path);
        ::close(fd);
    }
}

FileLock::FileLock(FileLock &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_))
{
}

FileLock::~FileLock()
{
    if (fd_ < 0)
        return;
    // Unlink while still holding the lock, so no one can lock the
    // departing inode and believe it is the live one.
    ::unlink(path_.c_str());
    ::close(fd_);
}

} // namespace pap
