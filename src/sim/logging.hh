/**
 * @file
 * Error and status reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal simulator invariant was violated (a bug);
 *            aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with an
 *            error code.
 */

#ifndef SIM_LOGGING_HH
#define SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace gals
{

namespace logging_detail
{

/** Concatenate a sequence of stream-printable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace logging_detail

#define gals_panic(...)                                                  \
    ::gals::logging_detail::panicImpl(                                   \
        __FILE__, __LINE__, ::gals::logging_detail::concat(__VA_ARGS__))

#define gals_fatal(...)                                                  \
    ::gals::logging_detail::fatalImpl(                                   \
        __FILE__, __LINE__, ::gals::logging_detail::concat(__VA_ARGS__))

/** Assert a simulator invariant; compiled in all build types. */
#define gals_assert(cond, ...)                                           \
    do {                                                                 \
        if (!(cond)) {                                                   \
            gals_panic("assertion '" #cond "' failed: ",                 \
                       ::gals::logging_detail::concat(__VA_ARGS__));     \
        }                                                                \
    } while (0)

} // namespace gals

#endif // SIM_LOGGING_HH
