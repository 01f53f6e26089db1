/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, malformed trace file); exits with
 *            status 1.
 * warn()   — something is suspect but simulation continues.
 * inform() — plain status output for the user.
 *
 * All of them accept a list of streamable values which are
 * concatenated into the message.
 */

#ifndef MLC_UTIL_LOGGING_HH
#define MLC_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace mlc {

namespace detail {

/** Concatenate streamable values into one string. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: an internal simulator bug was detected. */
#define mlc_panic(...) \
    ::mlc::detail::panicImpl(__FILE__, __LINE__, \
                             ::mlc::detail::concat(__VA_ARGS__))

/** Exit with a message: the user asked for something impossible.
 *  The message names no source location (it is the user's error,
 *  not the program's; panics keep theirs). */
#define mlc_fatal(...) \
    ::mlc::detail::fatalImpl(::mlc::detail::concat(__VA_ARGS__))

/** Emit a warning to stderr and keep going. */
template <typename... Args>
void
warn(const Args &...args)
{
    detail::warnImpl(detail::concat(args...));
}

/** Emit a status message to stderr. */
template <typename... Args>
void
inform(const Args &...args)
{
    detail::informImpl(detail::concat(args...));
}

/**
 * Quiet mode suppresses warn()/inform() output (used by tests that
 * exercise warning paths).
 */
void setLogQuiet(bool quiet);
bool logQuiet();

} // namespace mlc

#endif // MLC_UTIL_LOGGING_HH
