/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - a simulator bug: a condition that must never happen
 *            regardless of user input. Aborts.
 * fatal()  - a user error (bad configuration, malformed program).
 *            Exits with an error code.
 * warn()   - functionality that works but deserves attention.
 * inform() - normal operating status.
 */

#ifndef DMP_COMMON_LOGGING_HH
#define DMP_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dmp
{

namespace detail
{

/** Formats and emits one log record; aborts/exits for the fatal kinds. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);

/**
 * warn() that fires only the first time its (file, line) site is hit —
 * per-cycle warnings route through this so traces are not drowned.
 * @return true when the warning was actually emitted.
 */
bool warnOnceImpl(const char *file, int line, const std::string &msg);

/** Forget every warn-once site (tests only). */
void resetWarnOnce();

/** Stream-concatenates all arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

#define dmp_panic(...) \
    ::dmp::detail::panicImpl(__FILE__, __LINE__, \
                             ::dmp::detail::concat(__VA_ARGS__))

#define dmp_fatal(...) \
    ::dmp::detail::fatalImpl(__FILE__, __LINE__, \
                             ::dmp::detail::concat(__VA_ARGS__))

#define dmp_warn(...) \
    ::dmp::detail::warnImpl(__FILE__, __LINE__, \
                            ::dmp::detail::concat(__VA_ARGS__))

/** warn() deduplicated by call site: later hits of the same file:line
 *  are silent. Message arguments are still evaluated (cheap sites only). */
#define dmp_warn_once(...) \
    ::dmp::detail::warnOnceImpl(__FILE__, __LINE__, \
                                ::dmp::detail::concat(__VA_ARGS__))

#define dmp_inform(...) \
    ::dmp::detail::informImpl(::dmp::detail::concat(__VA_ARGS__))

/** panic() unless the invariant holds. */
#define dmp_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::dmp::detail::panicImpl(__FILE__, __LINE__, \
                ::dmp::detail::concat("assertion '", #cond, "' failed: ", \
                                      ##__VA_ARGS__)); \
        } \
    } while (0)

/**
 * Parse a numeric user input (environment knob or command-line flag)
 * as an unsigned integer in [min, max]: decimal, or 0x-hex / 0-octal
 * as strtoull base 0 reads them. Fatal, naming `what`, on anything
 * else — a sign or leading space, trailing text, overflow, or a value
 * out of range — so a typo never silently resizes or changes a run.
 */
std::uint64_t parseCount(const char *what, const char *text,
                         std::uint64_t min, std::uint64_t max);

} // namespace dmp

#endif // DMP_COMMON_LOGGING_HH
