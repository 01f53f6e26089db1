#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace mlc {

namespace {
bool quietFlag = false;
} // namespace

void
setLogQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
logQuiet()
{
    return quietFlag;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace mlc
