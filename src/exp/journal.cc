#include "exp/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace persim::exp
{

namespace
{

/** write(2) the whole buffer, retrying on EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    if (!writeAll(fd, content.data(), content.size()) ||
        ::fsync(fd) != 0) {
        ::close(fd);
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " to ", path, ": ",
              std::strerror(errno));

    // Make the rename itself durable.
    std::string dir = path;
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace persim::exp
