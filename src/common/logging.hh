/**
 * @file
 * Status and error reporting helpers, following the gem5 convention:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * unrecoverable user errors (bad configuration), warn() for conditions
 * the user should know about.
 */

#ifndef SDPCM_COMMON_LOGGING_HH
#define SDPCM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace sdpcm {

/**
 * Output verbosity. The single choke point for every status line the
 * library and its frontends print:
 *
 *  - Error: panics/fatals only (always printed — they end the process).
 *  - Warn: SDPCM_WARN. This is the floor `--quiet` maps to, so alerts
 *    that must never be silenced (SLO monitor breaches, watchdog
 *    stalls, oracle mismatches) are emitted at Warn.
 *  - Info: bench/CLI progress lines (SDPCM_PROGRESS, banners,
 *    per-cell matrix completion lines). The default.
 */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
};

/** Set the global verbosity (frontends map --quiet to Warn). */
void setLogLevel(LogLevel level);

/** True when messages of `level` should be printed. */
bool logEnabled(LogLevel level);

namespace detail {

/** Stream-compose a message from a variadic pack. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
[[noreturn]] void fatalImpl(const char* file, int line, const std::string& msg);
void warnImpl(const std::string& msg);
void progressImpl(const std::string& msg);

} // namespace detail

/**
 * Abort with a message; use for conditions that indicate a bug in the
 * simulator itself, never for user error.
 */
#define SDPCM_PANIC(...) \
    ::sdpcm::detail::panicImpl(__FILE__, __LINE__, \
        ::sdpcm::detail::composeMessage(__VA_ARGS__))

/**
 * Exit with a message; use for conditions caused by the user (invalid
 * configuration, impossible parameter combinations).
 */
#define SDPCM_FATAL(...) \
    ::sdpcm::detail::fatalImpl(__FILE__, __LINE__, \
        ::sdpcm::detail::composeMessage(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define SDPCM_WARN(...) \
    ::sdpcm::detail::warnImpl(::sdpcm::detail::composeMessage(__VA_ARGS__))

/**
 * Bench/CLI progress line (stderr, no prefix, Info level): per-cell
 * matrix completions and similar chatter `--quiet` is meant to silence.
 */
#define SDPCM_PROGRESS(...) \
    ::sdpcm::detail::progressImpl(::sdpcm::detail::composeMessage(__VA_ARGS__))

/** Panic if a runtime invariant does not hold. */
#define SDPCM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            SDPCM_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

} // namespace sdpcm

#endif // SDPCM_COMMON_LOGGING_HH
