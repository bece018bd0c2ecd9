/**
 * @file
 * Status and error reporting helpers in the spirit of gem5's logging
 * package.
 *
 * Two error functions with distinct purposes:
 *  - panic():  something happened that should never happen regardless of
 *              what the user does (an actual bug). Calls std::abort().
 *  - fatal():  the run cannot continue due to a user-visible condition
 *              (bad configuration, invalid arguments). Calls std::exit(1).
 *
 * Two status functions:
 *  - warn():   functionality may not behave as the user expects.
 *  - inform(): normal operating message, no connotation of misbehaviour.
 *
 * All four write to stderr.
 */

#ifndef MORPHLING_COMMON_LOGGING_H
#define MORPHLING_COMMON_LOGGING_H

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace morphling {

namespace detail {

/** Stream a pack of arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Number of warn() messages emitted so far (used by tests). */
std::size_t warnCount();

} // namespace morphling

/** Abort with a message: a condition that indicates a bug in this code. */
#define panic(...)                                                          \
    ::morphling::detail::panicImpl(__FILE__, __LINE__,                      \
                                   ::morphling::detail::concat(__VA_ARGS__))

/** Exit with a message: a condition caused by bad user input or config. */
#define fatal(...)                                                          \
    ::morphling::detail::fatalImpl(__FILE__, __LINE__,                      \
                                   ::morphling::detail::concat(__VA_ARGS__))

/** panic() if the given invariant does not hold. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            panic("panic condition (" #cond ") occurred: ", __VA_ARGS__);   \
        }                                                                   \
    } while (0)

/** fatal() if the given user-facing precondition does not hold. */
#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            fatal("fatal condition (" #cond ") occurred: ", __VA_ARGS__);   \
        }                                                                   \
    } while (0)

#define warn(...)                                                           \
    ::morphling::detail::warnImpl(::morphling::detail::concat(__VA_ARGS__))

#define inform(...)                                                         \
    ::morphling::detail::informImpl(::morphling::detail::concat(__VA_ARGS__))

#endif // MORPHLING_COMMON_LOGGING_H
