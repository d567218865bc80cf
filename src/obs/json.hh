/**
 * @file
 * Shared JSON plumbing for the observability layer.
 *
 * Three pieces, all dependency-free:
 *
 *  - `json::writeString` / `json::writeNumber`: the escaping and number
 *    formatting every JSON emitter in the tree must agree on. Strings
 *    escape quotes, backslashes and *all* control characters (named
 *    escapes where JSON has them, `\u00XX` otherwise). Numbers print
 *    integers exactly and everything else with shortest round-trip
 *    formatting (std::to_chars), so a value survives
 *    write -> parse -> write bit-identically — the property the
 *    regression gate's "report diffed against itself is empty" check
 *    rests on. NaN/Inf (which JSON cannot represent) clamp to 0.
 *
 *  - `JsonWriter`: a small streaming writer (object/array nesting,
 *    comma/indent management) used by the run-report serializer.
 *
 *  - `JsonValue` / `parseJson`: a minimal recursive-descent parser for
 *    the documents we emit (used by tools/report_diff and the tests).
 *    Throws std::runtime_error with a byte offset on malformed input.
 *
 * The ChromeTraceSink and EpochSeries emitters use the free functions
 * directly (their formats are line-oriented and hand-rolled); RunReport
 * uses JsonWriter.
 */

#ifndef SDPCM_OBS_JSON_HH
#define SDPCM_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sdpcm {
namespace json {

/** Write `s` as a JSON string literal (quotes included, fully escaped). */
void writeString(std::ostream& os, std::string_view s);

/** Write a finite JSON number; integers exact, doubles round-trip. */
void writeNumber(std::ostream& os, double v);

/** Write an unsigned integer exactly (ticks and counters exceed 2^53). */
void writeNumber(std::ostream& os, std::uint64_t v);

} // namespace json

/** Streaming JSON writer with nesting/comma/indent management. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream& os, bool pretty = true)
        : os_(os), pretty_(pretty)
    {}

    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Start a key/value pair inside an object. */
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view v);
    JsonWriter& value(const char* v) { return value(std::string_view(v)); }
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(int v) { return value(static_cast<double>(v)); }
    JsonWriter& value(bool v);

    template <typename T>
    JsonWriter&
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    /** Emit the separator/indent due before a new item in this scope. */
    void separate();

    std::ostream& os_;
    bool pretty_;
    bool afterKey_ = false;
    /** One flag per open scope: has the scope emitted an item yet? */
    std::vector<bool> hasItem_;
};

/**
 * A standalone multi-run export: `kind`, schema_version 1, `bench`, and
 * per entry {scheme, workload, `key`: summary written by `body`}.
 */
template <typename Entry, typename Summary>
void
writeRunsJson(std::ostream& os, const char* kind, const std::string& bench,
              const char* key, const std::vector<Entry>& entries,
              void (*body)(JsonWriter&, const Summary&))
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("kind", kind);
    w.kv("schema_version", std::uint64_t(1));
    w.kv("bench", bench);
    w.key("runs").beginArray();
    for (const Entry& e : entries) {
        w.beginObject();
        w.kv("scheme", e.scheme);
        w.kv("workload", e.workload);
        w.key(key);
        body(w, *e.summary);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** A parsed JSON document (tools and tests; not a hot-path type). */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    bool
    has(const std::string& k) const
    {
        return type == Type::Object && object.count(k) > 0;
    }

    /** Object member access; throws std::out_of_range when absent. */
    const JsonValue& at(const std::string& k) const { return object.at(k); }
};

/** Parse a complete JSON document; throws std::runtime_error on error. */
JsonValue parseJson(std::string_view text);

} // namespace sdpcm

#endif // SDPCM_OBS_JSON_HH
