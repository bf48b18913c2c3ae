#include "exp/json.hh"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "sim/logging.hh"

namespace persim::exp
{

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; serialize as null so output stays valid.
        os << "null";
        return;
    }
    // Integral values within int64 range render without a fraction;
    // everything else uses the shortest round-trip representation.
    if (v == std::floor(v) && std::fabs(v) < 9.2e18) {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<std::int64_t>(v));
        os.write(buf, res.ptr - buf);
        return;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

// ---------------------------------------------------------------------
// Reps: the heap half of string, array and object values.
// ---------------------------------------------------------------------

struct JsonValue::Rep
{
    Rep() = default;
    /** A clone starts with one reference, its new owner's. */
    Rep(const Rep &) noexcept {}
    Rep &operator=(const Rep &) = delete;

    std::atomic<std::uint32_t> refs{1};
};

struct JsonValue::StringRep : Rep
{
    explicit StringRep(std::string s) : str(std::move(s)) {}
    std::string str;
};

struct JsonValue::ArrayRep : Rep
{
    std::vector<JsonValue> items;
};

struct JsonValue::ObjectRep : Rep
{
    std::vector<std::pair<std::string, JsonValue>> members;
};

JsonValue::JsonValue(std::string s)
    : _kind(Kind::String), _rep(new StringRep(std::move(s)))
{
}

JsonValue
JsonValue::array()
{
    return JsonValue(Kind::Array, new ArrayRep());
}

JsonValue
JsonValue::object()
{
    return JsonValue(Kind::Object, new ObjectRep());
}

void
JsonValue::copyPayload(const JsonValue &other) noexcept
{
    switch (other._kind) {
    case Kind::Null:
        _num = 0.0;
        break;
    case Kind::Bool:
        _bool = other._bool;
        break;
    case Kind::Number:
        _form = other._form;
        if (_form == NumForm::Double)
            _num = other._num;
        else
            _bits = other._bits;
        break;
    default:
        _rep = other._rep;
    }
}

JsonValue::JsonValue(const JsonValue &other) noexcept : _kind(other._kind)
{
    copyPayload(other);
    if (hasRep())
        ++_rep->refs;
}

JsonValue::JsonValue(JsonValue &&other) noexcept : _kind(other._kind)
{
    copyPayload(other);
    other._kind = Kind::Null;
    other._num = 0.0;
}

JsonValue &
JsonValue::operator=(const JsonValue &other) noexcept
{
    return *this = JsonValue(other);
}

JsonValue &
JsonValue::operator=(JsonValue &&other) noexcept
{
    if (this != &other) {
        // The old value dies last: @p other may live inside it.
        JsonValue old(std::move(*this));
        _kind = other._kind;
        copyPayload(other);
        other._kind = Kind::Null;
        other._num = 0.0;
    }
    return *this;
}

void
JsonValue::release() noexcept
{
    if (--_rep->refs != 0)
        return;
    switch (_kind) {
    case Kind::String:
        delete static_cast<StringRep *>(_rep);
        break;
    case Kind::Array:
        delete static_cast<ArrayRep *>(_rep);
        break;
    default:
        delete static_cast<ObjectRep *>(_rep);
    }
}

void
JsonValue::unshare()
{
    if (_rep->refs == 1)
        return;
    Rep *mine = _kind == Kind::Array
                    ? static_cast<Rep *>(
                          new ArrayRep(*static_cast<ArrayRep *>(_rep)))
                    : new ObjectRep(*static_cast<ObjectRep *>(_rep));
    release();
    _rep = mine;
}

JsonValue::ArrayRep &
JsonValue::arrayRep()
{
    unshare();
    return *static_cast<ArrayRep *>(_rep);
}

JsonValue::ObjectRep &
JsonValue::objectRep()
{
    unshare();
    return *static_cast<ObjectRep *>(_rep);
}

double
JsonValue::asNumber() const
{
    if (_kind != Kind::Number)
        return 0.0;
    switch (_form) {
    case NumForm::Signed:
        return static_cast<double>(static_cast<std::int64_t>(_bits));
    case NumForm::Unsigned:
        return static_cast<double>(_bits);
    default:
        return _num;
    }
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return _kind == Kind::String ? static_cast<const StringRep *>(_rep)->str
                                 : empty;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    static const std::vector<JsonValue> empty;
    return _kind == Kind::Array ? static_cast<const ArrayRep *>(_rep)->items
                                : empty;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    static const std::vector<std::pair<std::string, JsonValue>> empty;
    return _kind == Kind::Object
               ? static_cast<const ObjectRep *>(_rep)->members
               : empty;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    simAssert(_kind == Kind::Array, "JsonValue::push on non-array");
    std::vector<JsonValue> &items = arrayRep().items;
    items.push_back(std::move(v));
    return items.back();
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    simAssert(_kind == Kind::Object, "JsonValue::[] on non-object");
    auto &members = objectRep().members;
    for (auto &[k, v] : members) {
        if (k == key)
            return v;
    }
    members.emplace_back(key, JsonValue());
    return members.back().second;
}

JsonValue &
JsonValue::append(std::string key, JsonValue v)
{
    simAssert(_kind == Kind::Object, "JsonValue::append on non-object");
    auto &members = objectRep().members;
    members.emplace_back(std::move(key), std::move(v));
    return members.back().second;
}

void
JsonValue::reserve(std::size_t n)
{
    simAssert(_kind == Kind::Array || _kind == Kind::Object,
              "JsonValue::reserve on a scalar");
    if (_kind == Kind::Array)
        arrayRep().items.reserve(n);
    else
        objectRep().members.reserve(n);
}

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &[k, v] : members()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace
{
/** Write @p n spaces without building a string. */
void
writePad(std::ostream &os, std::size_t n)
{
    static constexpr char kSpaces[] =
        "                                                                ";
    constexpr std::size_t kChunk = sizeof(kSpaces) - 1;
    for (; n > kChunk; n -= kChunk)
        os.write(kSpaces, kChunk);
    os.write(kSpaces, static_cast<std::streamsize>(n));
}
} // namespace

void
JsonValue::write(std::ostream &os, unsigned indent, unsigned depth) const
{
    const std::size_t pad = std::size_t{indent} * (depth + 1);
    const std::size_t closePad = std::size_t{indent} * depth;
    const char *nl = indent ? "\n" : "";
    const char *colon = indent ? ": " : ":";

    switch (_kind) {
    case Kind::Null:
        os << "null";
        break;
    case Kind::Bool:
        os << (_bool ? "true" : "false");
        break;
    case Kind::Number: {
        if (_form == NumForm::Double) {
            writeJsonNumber(os, _num);
            break;
        }
        char buf[24];
        auto res = _form == NumForm::Signed
                       ? std::to_chars(buf, buf + sizeof(buf),
                                       static_cast<std::int64_t>(_bits))
                       : std::to_chars(buf, buf + sizeof(buf), _bits);
        os.write(buf, res.ptr - buf);
        break;
    }
    case Kind::String:
        writeJsonString(os, asString());
        break;
    case Kind::Array: {
        const std::vector<JsonValue> &items = this->items();
        if (items.empty()) {
            os << "[]";
            break;
        }
        os << '[' << nl;
        for (std::size_t i = 0; i < items.size(); ++i) {
            writePad(os, pad);
            items[i].write(os, indent, depth + 1);
            if (i + 1 < items.size())
                os << ',';
            os << nl;
        }
        writePad(os, closePad);
        os << ']';
        break;
    }
    case Kind::Object: {
        const auto &members = this->members();
        if (members.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        for (std::size_t i = 0; i < members.size(); ++i) {
            writePad(os, pad);
            writeJsonString(os, members[i].first);
            os << colon;
            members[i].second.write(os, indent, depth + 1);
            if (i + 1 < members.size())
                os << ',';
            os << nl;
        }
        writePad(os, closePad);
        os << '}';
        break;
    }
    }
}

std::string
JsonValue::dump(unsigned indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (_kind != other._kind)
        return false;
    switch (_kind) {
    case Kind::Null:
        return true;
    case Kind::Bool:
        return _bool == other._bool;
    case Kind::Number:
        // Two integers compare exactly; anything else as doubles.
        if (_form != NumForm::Double && other._form != NumForm::Double)
            return _bits == other._bits &&
                   isNegativeInt() == other.isNegativeInt();
        return asNumber() == other.asNumber();
    default:
        break;
    }
    if (_rep == other._rep)
        return true;
    switch (_kind) {
    case Kind::String:
        return asString() == other.asString();
    case Kind::Array:
        return items() == other.items();
    default:
        return members() == other.members();
    }
}

// ---------------------------------------------------------------------
// Parser: plain recursive descent over the full JSON grammar.
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : _s(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _s.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        persim::fatal("JSON parse error at offset ", _pos, ": ", why);
    }

    void skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' || _s[_pos] == '\n' ||
                _s[_pos] == '\r'))
            ++_pos;
    }

    char peek()
    {
        skipWs();
        if (_pos >= _s.size())
            fail("unexpected end of input");
        return _s[_pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (_s.compare(_pos, n, lit) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return JsonValue(parseString());
        case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("bad literal");
        case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("bad literal");
        case 'n':
            if (consumeLiteral("null"))
                return JsonValue();
            fail("bad literal");
        default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        if (peek() == '}') {
            ++_pos;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected member name");
            std::string key = parseString();
            expect(':');
            obj[key] = parseValue();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        if (peek() == ']') {
            ++_pos;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                fail("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _s.size())
                fail("unterminated escape");
            char e = _s[_pos++];
            switch (e) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (_pos + 4 > _s.size())
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _s[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode as UTF-8 (no surrogate-pair handling; the
                // writer only emits \u for control characters).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue parseNumber()
    {
        skipWs();
        const std::size_t start = _pos;
        if (_pos < _s.size() && (_s[_pos] == '-' || _s[_pos] == '+'))
            ++_pos;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '.' || _s[_pos] == 'e' || _s[_pos] == 'E' ||
                _s[_pos] == '+' || _s[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            fail("expected a value");
        // Integer literals stay exact when they fit 64 bits.
        const char *first = _s.data() + start;
        const char *last = _s.data() + _pos;
        if (std::string_view(first, _pos - start).find_first_of(".eE") ==
            std::string_view::npos) {
            std::uint64_t u = 0;
            std::int64_t i = 0;
            const bool neg = *first == '-';
            auto res = neg ? std::from_chars(first, last, i)
                           : std::from_chars(first, last, u);
            if (res.ec == std::errc() && res.ptr == last)
                return neg ? JsonValue(i) : JsonValue(u);
        }
        double v = 0.0;
        auto res = std::from_chars(_s.data() + start, _s.data() + _pos, v);
        if (res.ec != std::errc() || res.ptr != _s.data() + _pos)
            fail("bad number");
        return JsonValue(v);
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace persim::exp
