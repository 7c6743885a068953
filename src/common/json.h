/**
 * @file
 * Minimal JSON emission, and a small parser for reading results back.
 *
 * The structured-results layer serializes ScenarioResult/SimResult with
 * this writer so every tool emits one machine-readable format; no
 * external JSON dependency is available in the build image.
 */
#ifndef QPRAC_COMMON_JSON_H
#define QPRAC_COMMON_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace qprac {

/** Escape a string for embedding in a JSON document (no quotes added). */
std::string jsonEscape(const std::string& s);

/**
 * Streaming JSON writer. Callers drive begin/end and key/value in
 * document order; commas are inserted automatically. Doubles are
 * emitted with round-trip precision (%.17g); non-finite values become
 * null (JSON has no NaN/Inf).
 */
class JsonWriter
{
  public:
    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Emit an object key; must be followed by a value or begin*(). */
    JsonWriter& key(const std::string& name);

    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(int v);
    JsonWriter& value(bool v);

    /** Splice an already-serialized JSON value into value position. */
    JsonWriter& raw(const std::string& json_fragment);

    /** The document so far. */
    const std::string& str() const { return out_; }

  private:
    void separate();

    std::string out_;
    bool need_comma_ = false;
};

/**
 * Minimal JSON document value, parsed by jsonParse(). Objects preserve
 * key order (members is a vector, not a map), and numbers keep their
 * raw source text so integer fields round-trip exactly even past
 * double precision (asU64 reparses the text, it never goes through a
 * double). Built for the result-cache sidecars and the isolated-sweep
 * child protocol (sim/result_cache.h), where a cached result must
 * re-serialize byte-identically to the fresh run that produced it.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool bool_value = false;
    std::string text;   ///< string payload, or a number's raw text
    std::vector<std::pair<std::string, JsonValue>> members; ///< objects
    std::vector<JsonValue> items;                           ///< arrays

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue* find(const std::string& key) const;

    /** Number as double (strtod over the raw text; 0 when not a number). */
    double asDouble() const;

    /** Number as u64 (strtoull over the raw text; 0 on sign/garbage). */
    std::uint64_t asU64() const;
};

/**
 * Parse one complete JSON value (with nothing trailing) into *out.
 * False with a positioned *err message (when @p err is non-null) on
 * malformed input. String escapes are decoded (\uXXXX escapes outside
 * ASCII are rejected — the emitter never produces them).
 */
bool jsonParse(const std::string& text, JsonValue* out, std::string* err);

/**
 * True when @p text is one JSON value (object, array, string, number,
 * true/false/null) with nothing trailing: jsonParse() succeeds on it.
 */
bool jsonValid(const std::string& text);

} // namespace qprac

#endif // QPRAC_COMMON_JSON_H
