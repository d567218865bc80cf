#include "common/logging.hh"

#include <exception>
#include <stdexcept>

namespace sdpcm {

namespace {

// Process-global verbosity. Experiments run many System instances per
// process, but verbosity is a frontend concern (one --quiet per
// invocation), so a single global is correct here — unlike stats, which
// must stay per-instance.
LogLevel g_level = LogLevel::Info;

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(g_level);
}

namespace detail {

[[noreturn]] void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string& msg)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
progressImpl(const std::string& msg)
{
    if (!logEnabled(LogLevel::Info))
        return;
    std::fprintf(stderr, "%s\n", msg.c_str());
}

} // namespace detail
} // namespace sdpcm
