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
 * 64-bit integers (seeds, counters) are kept exact, never rounded
 * through a double, and integer literals parse back exactly.
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

/**
 * One JSON value: null, bool, number, string, array, or object.
 *
 * A 16-byte handle: the kind, plus a bool, a double, a 64-bit
 * integer, or a pointer to a reference-counted string, array or
 * object rep. Copying a value shares its rep (an atomic count bump,
 * so copies may cross threads); the first mutation of a shared
 * container (operator[], push, append, reserve) clones it first, so a
 * copy never sees the other's edits.
 * A value must not be inserted into itself (`v["k"] = v`): the member
 * would share, and so contain, its own container's rep. Accessors of
 * the wrong kind return empty or zero values.
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() : _kind(Kind::Null), _num(0.0) {}
    JsonValue(bool b) : _kind(Kind::Bool), _bool(b) {}
    JsonValue(double d) : _kind(Kind::Number), _num(d) {}
    JsonValue(int i) : JsonValue(std::int64_t{i}) {}
    JsonValue(unsigned u) : JsonValue(std::uint64_t{u}) {}
    JsonValue(std::uint64_t u)
        : _kind(Kind::Number), _form(NumForm::Unsigned), _bits(u)
    {
    }
    JsonValue(std::int64_t i)
        : _kind(Kind::Number), _form(NumForm::Signed),
          _bits(static_cast<std::uint64_t>(i))
    {
    }
    JsonValue(const char *s) : JsonValue(std::string(s)) {}
    JsonValue(std::string s);

    JsonValue(const JsonValue &other) noexcept;
    JsonValue(JsonValue &&other) noexcept;
    JsonValue &operator=(const JsonValue &other) noexcept;
    JsonValue &operator=(JsonValue &&other) noexcept;
    ~JsonValue()
    {
        if (hasRep())
            release();
    }

    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }

    bool asBool() const { return _kind == Kind::Bool && _bool; }
    double asNumber() const;
    const std::string &asString() const;

    /** Array: append an element (value must be an array). */
    JsonValue &push(JsonValue v);
    const std::vector<JsonValue> &items() const;
    std::size_t size() const { return items().size(); }
    const JsonValue &at(std::size_t i) const { return items().at(i); }

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
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Array or object: room for @p n elements or members. */
    void reserve(std::size_t n);

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
    struct Rep;
    struct StringRep;
    struct ArrayRep;
    struct ObjectRep;

    JsonValue(Kind k, Rep *rep) : _kind(k), _rep(rep) {}

    /** String, array and object values keep their data in a rep. */
    bool hasRep() const { return _kind >= Kind::String; }
    /** Take @p other's kind-specific payload; no reference counting. */
    void copyPayload(const JsonValue &other) noexcept;
    /** Drop this handle's reference to its rep (which dies with the
     * last); only for kinds that have one. */
    void release() noexcept;
    /** Clone a shared container rep so this handle owns it alone. */
    void unshare();
    /** The container's rep, unshared for mutation. */
    ArrayRep &arrayRep();
    ObjectRep &objectRep();

    /** How a number is held: a double, or an exact 64-bit integer
     * whose bits are in _bits. */
    enum class NumForm : std::uint8_t
    {
        Double,
        Signed,
        Unsigned,
    };

    /** A negative Signed number. */
    bool isNegativeInt() const
    {
        return _form == NumForm::Signed &&
               static_cast<std::int64_t>(_bits) < 0;
    }

    Kind _kind;
    NumForm _form = NumForm::Double;
    union
    {
        bool _bool;
        double _num;
        std::uint64_t _bits;
        Rep *_rep;
    };
};

/** Append @p v to @p os in shortest round-trip form, JSON-compatible. */
void writeJsonNumber(std::ostream &os, double v);

/** Append the JSON string literal (quotes + escapes) for @p s. */
void writeJsonString(std::ostream &os, const std::string &s);

} // namespace persim::exp

#endif // PERSIM_EXP_JSON_HH
