#include "common/logging.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <set>
#include <utility>

namespace dmp
{
namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

namespace
{
std::mutex gWarnOnceMutex;
std::set<std::pair<const char *, int>> gWarnedSites;
} // namespace

bool
warnOnceImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard lk(gWarnOnceMutex);
        if (!gWarnedSites.emplace(file, line).second)
            return false;
    }
    std::fprintf(stderr, "warn: %s (%s:%d) [further warnings from this "
                         "site suppressed]\n",
                 msg.c_str(), file, line);
    return true;
}

void
resetWarnOnce()
{
    std::lock_guard lk(gWarnOnceMutex);
    gWarnedSites.clear();
}

} // namespace detail

std::uint64_t
parseCount(const char *what, const char *text, std::uint64_t min,
           std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t n = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(*text)) || *end ||
        errno == ERANGE || n < min || n > max) {
        dmp_fatal(what, "='", text, "' is not an integer in [", min, ", ",
                  max, "]");
    }
    return n;
}

} // namespace dmp
