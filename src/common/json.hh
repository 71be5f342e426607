/**
 * @file
 * Minimal JSON string escaper and reader for the telemetry tooling.
 *
 * The simulator only ever *emits* JSON (stats records, lint reports,
 * trace events); every exporter escapes its strings with escape(), and
 * parse() is the matching reader for the aggregation side (dmp-report):
 * a small recursive-descent parser into a plain Value tree. It accepts
 * RFC 8259 minus non-ASCII \uXXXX escapes (escape() emits \u00XX for
 * control characters only) and reports malformed input with a byte
 * offset instead of throwing.
 */

#ifndef DMP_COMMON_JSON_HH
#define DMP_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmp::json
{

/** One parsed JSON value; a tagged tree owned by the root. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    /** Insertion-ordered members (duplicate keys keep the first). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *get(std::string_view key) const;

    /** Nested counter-style lookup: get(a) then ->get(b). */
    const Value *get(std::string_view a, std::string_view b) const;

    /** Number as u64 (0 when not a number or negative). */
    std::uint64_t asU64() const;

    /** Number value (0 when not a number). */
    double asDouble() const { return isNumber() ? number : 0.0; }
};

/**
 * Escape a string for inclusion in a JSON string literal: quote,
 * backslash, \n and \t get their short escapes, every other control
 * character below 0x20 becomes \u00XX. parse() reads the result back
 * to the original bytes.
 */
std::string escape(std::string_view s);

/**
 * Parse one JSON document.
 * @return true on success; on failure `err` holds "offset N: reason".
 */
bool parse(std::string_view text, Value &out, std::string &err);

} // namespace dmp::json

#endif // DMP_COMMON_JSON_HH
