/**
 * @file
 * Minimal logging / error-reporting facility.
 *
 * Follows the gem5 convention: fatal() for user-caused conditions the
 * program cannot recover from, panic() for internal invariant
 * violations, warn() for status messages. Every message goes to
 * stderr; there is no verbosity setting.
 */

#pragma once

#include <sstream>
#include <string>

namespace stats::support {

enum class LogLevel { Warn, Error };

/** Emit one log line to stderr. */
void logMessage(LogLevel level, const std::string &message);

namespace detail {

template <class... Args>
std::string
format(Args &&...args)
{
    std::ostringstream out;
    (out << ... << args);
    return out.str();
}

} // namespace detail

/** Something is suspicious but execution can continue. */
template <class... Args>
void
warn(Args &&...args)
{
    logMessage(LogLevel::Warn, detail::format(std::forward<Args>(args)...));
}

/** Unrecoverable user-level error: report and exit(1). */
[[noreturn]] void fatalExit(const std::string &message);

template <class... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    fatalExit(detail::format(std::forward<Args>(args)...));
}

/** Internal invariant violation: report and abort(). */
[[noreturn]] void panicAbort(const std::string &message);

template <class... Args>
[[noreturn]] void
panic(Args &&...args)
{
    panicAbort(detail::format(std::forward<Args>(args)...));
}

} // namespace stats::support
