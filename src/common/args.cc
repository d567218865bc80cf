#include "common/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.hh"

namespace sdpcm {

ArgParser::ArgParser(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            SDPCM_WARN("ignoring positional argument: ", arg);
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq == std::string::npos)
            options_[arg] = "1";
        else
            options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
}

bool
ArgParser::has(const std::string& key) const
{
    const bool present = options_.count(key) != 0;
    if (present)
        consumed_.insert(key);
    return present;
}

std::string
ArgParser::getString(const std::string& key,
                     const std::string& default_value) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return default_value;
    consumed_.insert(key);
    return it->second;
}

std::string
ArgParser::getPath(const std::string& key) const
{
    const std::string path = getString(key, "");
    return path == "1" ? "" : path;
}

std::int64_t
ArgParser::parseInt(const std::string& text)
{
    if (text.empty())
        throw std::invalid_argument("empty integer");
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || end == text.c_str())
        throw std::invalid_argument("trailing junk in integer '" + text +
                                    "'");
    if (errno == ERANGE)
        throw std::invalid_argument("integer out of range: '" + text +
                                    "'");
    return static_cast<std::int64_t>(v);
}

double
ArgParser::parseDouble(const std::string& text)
{
    if (text.empty())
        throw std::invalid_argument("empty number");
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || end == text.c_str())
        throw std::invalid_argument("trailing junk in number '" + text +
                                    "'");
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        throw std::invalid_argument("number out of range: '" + text + "'");
    if (!std::isfinite(v))
        throw std::invalid_argument("number is not finite: '" + text +
                                    "'");
    return v;
}

bool
ArgParser::parseBool(const std::string& text)
{
    if (text == "1" || text == "true" || text == "yes" || text == "on")
        return true;
    if (text == "0" || text == "false" || text == "no" || text == "off")
        return false;
    throw std::invalid_argument(
        "expected a boolean (1/0/true/false/yes/no/on/off), got '" + text +
        "'");
}

std::int64_t
ArgParser::getInt(const std::string& key, std::int64_t default_value) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return default_value;
    consumed_.insert(key);
    try {
        return parseInt(it->second);
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL("bad value for --", key, "=", it->second, ": ",
                    e.what());
    }
}

std::int64_t
ArgParser::getInt(const std::string& key, std::int64_t default_value,
                  std::int64_t min_value, std::int64_t max_value) const
{
    const std::int64_t v = getInt(key, default_value);
    if (v < min_value || v > max_value) {
        SDPCM_FATAL("bad value for --", key, "=", v, ": must be in [",
                    min_value, ", ", max_value, "]");
    }
    return v;
}

double
ArgParser::getDouble(const std::string& key, double default_value) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return default_value;
    consumed_.insert(key);
    try {
        return parseDouble(it->second);
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL("bad value for --", key, "=", it->second, ": ",
                    e.what());
    }
}

bool
ArgParser::getBool(const std::string& key, bool default_value) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return default_value;
    consumed_.insert(key);
    try {
        return parseBool(it->second);
    } catch (const std::invalid_argument& e) {
        SDPCM_FATAL("bad value for --", key, "=", it->second, ": ",
                    e.what());
    }
}

void
ArgParser::finishParsing() const
{
    const bool lax = getBool("lax-flags", false);
    std::string unknown;
    for (const auto& [key, value] : options_) {
        if (consumed_.count(key))
            continue;
        if (!unknown.empty())
            unknown += ", ";
        unknown += "--" + key;
    }
    if (unknown.empty())
        return;
    if (lax) {
        SDPCM_WARN("ignoring unknown option(s): ", unknown);
        return;
    }
    SDPCM_FATAL("unknown option(s): ", unknown,
                " (misspelled flag? pass --lax-flags to downgrade this "
                "to a warning)");
}

} // namespace sdpcm
