/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations (simulator bugs) and aborts.
 */
#ifndef QPRAC_COMMON_LOG_H
#define QPRAC_COMMON_LOG_H

#include <sstream>
#include <string>

namespace qprac {

/** Terminate due to a user/configuration error (clean exit(1)). */
[[noreturn]] void fatal(const std::string& msg);

/** Terminate due to an internal simulator bug (abort with core). */
[[noreturn]] void panic(const std::string& msg);

/** Print a warning to stderr; simulation continues. */
void warn(const std::string& msg);

/** Print an informational message to stderr; simulation continues. */
void inform(const std::string& msg);

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

namespace detail {

inline void
formatInto(std::ostringstream&)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream& os, const T& v, const Rest&... rest)
{
    os << v;
    formatInto(os, rest...);
}

} // namespace detail

/** Build a string by streaming all arguments together. */
template <typename... Args>
std::string
strCat(const Args&... args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    return os.str();
}

namespace detail {

/**
 * QP_ASSERT's failure path. Out of line and cold, so a check compiles
 * to a compare and a branch and the accessors holding one still inline
 * into their callers.
 */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char* cond, const char* file, int line,
             const Args&... args)
{
    panic(strCat("assertion failed: ", cond, " @ ", file, ":", line, " ",
                 args...));
}

} // namespace detail

} // namespace qprac

/**
 * Internal-invariant check. Unlike assert(), stays on in release builds:
 * a silently-corrupt security simulation is worse than a slow one.
 */
#define QP_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond))                                                      \
            ::qprac::detail::assertFailed(#cond, __FILE__, __LINE__,      \
                                          __VA_ARGS__);                   \
    } while (0)

#endif // QPRAC_COMMON_LOG_H
