/**
 * @file
 * Minimal command-line argument parsing for bench and example binaries.
 *
 * Supports `--key=value` and `--flag` forms. Bench binaries use this to
 * accept `--refs=N` (trace length per core) and `--seed=N` without pulling
 * in a heavyweight flags library.
 *
 * Values are parsed strictly: `--refs=10k` or `--seed=banana` is a fatal
 * error, not a silent truncation to 10 / 0. The typed getters fatal with
 * a diagnostic naming the offending `--key=value`; the static parse*
 * helpers throw std::invalid_argument so library code (and tests) can
 * handle failures themselves.
 *
 * Every successful lookup (has / getString / getInt / getDouble /
 * getBool) marks its key as consumed. Binaries call finishParsing() once
 * all flags have been read: any option never looked at — a typo like
 * `--telemetery=f.jsonl` — is a fatal error (or a warning under the
 * `--lax-flags` escape hatch), so misspelled flags can no longer
 * silently no-op.
 */

#ifndef SDPCM_COMMON_ARGS_HH
#define SDPCM_COMMON_ARGS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace sdpcm {

/** Parsed command-line options. */
class ArgParser
{
  public:
    ArgParser(int argc, char** argv);

    bool has(const std::string& key) const;

    std::string getString(const std::string& key,
                          const std::string& default_value) const;
    /** An output-file flag: FILE for --key=FILE, "" for a bare --key
     *  (the output is on without a file) or when absent. */
    std::string getPath(const std::string& key) const;
    std::int64_t getInt(const std::string& key,
                        std::int64_t default_value) const;
    /** getInt that is fatal unless min_value <= value <= max_value. */
    std::int64_t getInt(const std::string& key, std::int64_t default_value,
                        std::int64_t min_value,
                        std::int64_t max_value) const;
    double getDouble(const std::string& key, double default_value) const;
    bool getBool(const std::string& key, bool default_value) const;

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
    std::map<std::string, std::string> options_;
    mutable std::set<std::string> consumed_;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_ARGS_HH
