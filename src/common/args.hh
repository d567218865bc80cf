/**
 * @file
 * Minimal command-line argument parsing for bench and example binaries.
 *
 * Supports `--key=value` and bare `--flag` forms; other arguments are
 * positional. Bench binaries use this to accept `--refs=N` (trace
 * length per core) and `--seed=N` without pulling in a heavyweight
 * flags library. A key given twice (`--refs=10 --refs=20`) is a fatal
 * error, not a silent last-one-wins.
 *
 * Values are parsed strictly: `--refs=10k` or `--seed=banana` is a fatal
 * error, not a silent truncation to 10 / 0, and get<T>() range-checks
 * every number (`--cores=-1` cannot wrap to 2^32-1). The getters fatal
 * naming the offending `--key=value`; the static parse* helpers throw
 * std::invalid_argument so library code (and tests) can handle failures
 * themselves. A bare `--key` is not `--key=1`: value getters fatal on
 * it, getBool() reads it as true and getPath() as "on, no file".
 *
 * Every successful lookup (has / getString / getPath / get / getBool)
 * marks its key as consumed. Binaries call finishParsing() once all
 * flags have been read: any option never looked at — a typo like
 * `--telemetery=f.jsonl` — is a fatal error (or a warning under the
 * `--lax-flags` escape hatch), so misspelled flags can no longer
 * silently no-op.
 */

#ifndef SDPCM_COMMON_ARGS_HH
#define SDPCM_COMMON_ARGS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sdpcm {

/** Parsed command-line options. */
class ArgParser
{
  public:
    ArgParser(int argc, char** argv);
    /** The same over the words after the program name. */
    explicit ArgParser(const std::vector<std::string>& words);

    bool has(const std::string& key) const;

    std::string getString(const std::string& key,
                          const std::string& default_value) const;
    /** An output-file flag: FILE for --key=FILE, "" for a bare --key
     *  (the output is on without a file) or when absent. A boolean
     *  word (--key=0, --key=on, ...) is fatal: it is not a file name. */
    std::string getPath(const std::string& key) const;

    /**
     * The number in --key=V, or `default_value` when absent. Fatal
     * unless V parses as a T (integers: base 0, no trailing junk) and
     * min_value <= V <= max_value.
     */
    template <typename T>
    T get(const std::string& key, T default_value,
          T min_value = std::numeric_limits<T>::lowest(),
          T max_value = std::numeric_limits<T>::max()) const;

    std::int64_t getInt(const std::string& key, std::int64_t def) const
    {
        return get(key, def);
    }
    double getDouble(const std::string& key, double def) const
    {
        return get(key, def);
    }
    bool getBool(const std::string& key, bool default_value) const;

    /** The non-flag arguments (finishParsing() warns if never read). */
    const std::vector<std::string>& positional() const;

    /**
     * Fatal on any option that was never looked up (unknown or typo'd
     * flag). `--lax-flags` downgrades this to a once-per-parser warning
     * for wrapper scripts that forward surplus options.
     */
    void finishParsing() const;

    /**
     * Strict scalar parsers: the whole string must be consumed and the
     * value must be in range (and finite, for doubles). Integers accept
     * the usual 0x/0 prefixes (base 0). Booleans accept
     * 1/0/true/false/yes/no/on/off. Throw std::invalid_argument with a
     * human-readable reason otherwise.
     */
    static std::int64_t parseInt(const std::string& text);
    static double parseDouble(const std::string& text);
    static bool parseBool(const std::string& text);

  private:
    /** --key's entry (nullopt: bare), marked consumed; null if absent. */
    const std::optional<std::string>* lookup(const std::string& key) const;
    /** The text of --key=V; nullptr when absent, fatal when bare. */
    const std::string* value(const std::string& key) const;
    [[noreturn]] static void badValue(const std::string& key,
                                      const std::string& text,
                                      const std::string& why);

    /** nullopt marks a bare --key. */
    std::map<std::string, std::optional<std::string>> options_;
    std::vector<std::string> positional_;
    mutable std::set<std::string> consumed_;
    mutable bool positionalRead_ = false;
};

template <typename T>
T
ArgParser::get(const std::string& key, T default_value, T min_value,
               T max_value) const
{
    const std::string* text = value(key);
    if (!text)
        return default_value;
    try {
        if constexpr (std::is_floating_point_v<T>) {
            const double v = parseDouble(*text);
            if (v >= min_value && v <= max_value)
                return static_cast<T>(v);
        } else {
            const std::int64_t v = parseInt(*text);
            if (std::cmp_greater_equal(v, min_value) &&
                std::cmp_less_equal(v, max_value))
                return static_cast<T>(v);
        }
    } catch (const std::invalid_argument& e) {
        badValue(key, *text, e.what());
    }
    std::ostringstream why;
    why << "must be in [" << +min_value << ", " << +max_value << "]";
    badValue(key, *text, why.str());
}

} // namespace sdpcm

#endif // SDPCM_COMMON_ARGS_HH
