#include "common/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/logging.hh"

namespace sdpcm {

ArgParser::ArgParser(int argc, char** argv)
    : ArgParser(argc > 1 ? std::vector<std::string>(argv + 1, argv + argc)
                         : std::vector<std::string>{})
{}

ArgParser::ArgParser(const std::vector<std::string>& words)
{
    for (const std::string& word : words) {
        if (word.rfind("--", 0) != 0) {
            positional_.push_back(word);
            continue;
        }
        const auto eq = word.find('=');
        const bool bare = eq == std::string::npos;
        const std::string key = word.substr(2, bare ? eq : eq - 2);
        const std::optional<std::string> text =
            bare ? std::nullopt : std::optional(word.substr(eq + 1));
        if (!options_.emplace(key, text).second)
            SDPCM_FATAL("--", key, " given twice");
    }
}

const std::optional<std::string>*
ArgParser::lookup(const std::string& key) const
{
    auto it = options_.find(key);
    if (it == options_.end())
        return nullptr;
    consumed_.insert(key);
    return &it->second;
}

bool
ArgParser::has(const std::string& key) const
{
    return lookup(key) != nullptr;
}

const std::string*
ArgParser::value(const std::string& key) const
{
    const std::optional<std::string>* v = lookup(key);
    if (v && !*v)
        SDPCM_FATAL("--", key, " needs a value");
    return v ? &**v : nullptr;
}

void
ArgParser::badValue(const std::string& key, const std::string& text,
                    const std::string& why)
{
    SDPCM_FATAL("bad value for --", key, "=", text, ": ", why);
}

std::string
ArgParser::getString(const std::string& key,
                     const std::string& default_value) const
{
    const std::string* text = value(key);
    return text ? *text : default_value;
}

std::string
ArgParser::getPath(const std::string& key) const
{
    const std::optional<std::string>* v = lookup(key);
    if (!v || !*v)
        return "";
    try {
        parseBool(**v);
    } catch (const std::invalid_argument&) {
        return **v;
    }
    badValue(key, **v, "expected a file name, not a boolean");
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

bool
ArgParser::getBool(const std::string& key, bool default_value) const
{
    const std::optional<std::string>* v = lookup(key);
    if (!v)
        return default_value;
    if (!*v)
        return true; // a bare --key
    try {
        return parseBool(**v);
    } catch (const std::invalid_argument& e) {
        badValue(key, **v, e.what());
    }
}

const std::vector<std::string>&
ArgParser::positional() const
{
    positionalRead_ = true;
    return positional_;
}

void
ArgParser::finishParsing() const
{
    for (std::size_t i = 0; !positionalRead_ && i < positional_.size(); ++i)
        SDPCM_WARN("ignoring positional argument: ", positional_[i]);
    const bool lax = getBool("lax-flags", false);
    std::string unknown;
    for (const auto& [key, text] : options_) {
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
