/**
 * @file
 * Minimal JSON document model for the experiment subsystem.
 *
 * Design goals, in order:
 *   1. Deterministic serialization — the same document always renders
 *      to the same bytes, regardless of thread count or locale, so a
 *      parallel sweep can be diffed against a serial one.
 *   2. Order preservation — objects keep insertion order, so emitted
 *      files read in the order the code builds them.
 *   3. Round-trip — parse(dump(v)) reproduces v (used by tests and by
 *      tools that post-process sweep output).
 *
 * Numbers serialize via std::to_chars (shortest round-trip form);
 * integral values within int64 range render without a decimal point.
 */

#ifndef PERSIM_EXP_JSON_HH
#define PERSIM_EXP_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace persim::exp
{

/** One JSON value: null, bool, number, string, array, or object. */
class JsonValue
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

    JsonValue() : _kind(Kind::Null) {}
    JsonValue(bool b) : _kind(Kind::Bool), _bool(b) {}
    JsonValue(double d) : _kind(Kind::Number), _num(d) {}
    JsonValue(int i) : _kind(Kind::Number), _num(i) {}
    JsonValue(unsigned u) : _kind(Kind::Number), _num(u) {}
    JsonValue(std::uint64_t u)
        : _kind(Kind::Number), _num(static_cast<double>(u))
    {
    }
    JsonValue(std::int64_t i)
        : _kind(Kind::Number), _num(static_cast<double>(i))
    {
    }
    JsonValue(const char *s) : _kind(Kind::String), _str(s) {}
    JsonValue(std::string s) : _kind(Kind::String), _str(std::move(s)) {}

    static JsonValue array() { return JsonValue(Kind::Array); }
    static JsonValue object() { return JsonValue(Kind::Object); }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }

    bool asBool() const { return _bool; }
    double asNumber() const { return _num; }
    const std::string &asString() const { return _str; }

    /** Array: append an element (value must be an array). */
    JsonValue &push(JsonValue v);
    const std::vector<JsonValue> &items() const { return _items; }
    std::size_t size() const { return _items.size(); }
    const JsonValue &at(std::size_t i) const { return _items.at(i); }

    /** Object: insert-or-get a member (value must be an object). */
    JsonValue &operator[](const std::string &key);
    /**
     * Object: append a member without the duplicate-key scan of
     * operator[]. @p key must not be present yet; exporters whose keys
     * are unique by construction use this to stay linear in the
     * member count.
     */
    JsonValue &append(std::string key, JsonValue v);
    /** Object: lookup; nullptr when missing or not an object. */
    const JsonValue *get(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return _members;
    }

    /**
     * Render the document. @p indent > 0 pretty-prints with that many
     * spaces per level; 0 renders compact.
     */
    void write(std::ostream &os, unsigned indent = 2,
               unsigned depth = 0) const;
    std::string dump(unsigned indent = 2) const;

    /** Parse a complete JSON document; throws SimFatal on bad input. */
    static JsonValue parse(const std::string &text);

    bool operator==(const JsonValue &other) const;

  private:
    explicit JsonValue(Kind k) : _kind(k) {}

    Kind _kind;
    bool _bool = false;
    double _num = 0.0;
    std::string _str;
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

/** Append @p v to @p os in shortest round-trip form, JSON-compatible. */
void writeJsonNumber(std::ostream &os, double v);

/** Append the JSON string literal (quotes + escapes) for @p s. */
void writeJsonString(std::ostream &os, const std::string &s);

} // namespace persim::exp

#endif // PERSIM_EXP_JSON_HH
