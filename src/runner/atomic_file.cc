#include "runner/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace gals::runner
{

namespace
{

std::string
errnoText()
{
    return std::strerror(errno);
}

} // namespace

std::string
atomicTempPath(const std::string &path)
{
    return path + ".tmp";
}

bool
atomicWriteFile(const std::string &path, const std::string &contents,
                std::string &err)
{
    const std::string tmp = atomicTempPath(path);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        err = "cannot open '" + tmp + "' for writing: " + errnoText();
        return false;
    }

    std::size_t written = 0;
    while (written < contents.size()) {
        const ssize_t n = ::write(fd, contents.data() + written,
                                  contents.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            err = "error writing '" + tmp + "': " + errnoText();
            ::close(fd);
            std::remove(tmp.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }

    // The rename below is only crash-safe if the *data* reaches disk
    // before the name does; without the fsync a power loss could
    // leave the new name pointing at zero-length contents.
    if (::fsync(fd) != 0) {
        err = "fsync '" + tmp + "' failed: " + errnoText();
        ::close(fd);
        std::remove(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        err = "error closing '" + tmp + "': " + errnoText();
        std::remove(tmp.c_str());
        return false;
    }

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        err = "cannot rename '" + tmp + "' to '" + path +
              "': " + errnoText();
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out, std::string &err)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is) {
        err = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad()) {
        err = "error reading '" + path + "'";
        return false;
    }
    out = buf.str();
    return true;
}

} // namespace gals::runner
