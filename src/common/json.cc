#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qprac {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (need_comma_)
        out_ += ',';
    need_comma_ = false;
}

JsonWriter&
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    out_ += ']';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::key(const std::string& name)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    return *this;
}

JsonWriter&
JsonWriter::value(const std::string& v)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(const char* v)
{
    return value(std::string(v));
}

JsonWriter&
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
    } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out_ += buf;
    }
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter&
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::raw(const std::string& json_fragment)
{
    separate();
    out_ += json_fragment;
    need_comma_ = true;
    return *this;
}

// --- Syntax checker ---------------------------------------------------

namespace {

struct JsonLint
{
    const std::string& s;
    std::size_t pos = 0;

    void skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool literal(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (s.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    bool string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size()) {
            char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
                char e = s[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[pos])))
                            return false;
                    }
                } else if (!(e == '"' || e == '\\' || e == '/' ||
                             e == 'b' || e == 'f' || e == 'n' ||
                             e == 'r' || e == 't')) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false;
            }
            ++pos;
        }
        return false;
    }

    bool digits()
    {
        std::size_t start = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        return pos > start;
    }

    bool number()
    {
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (!digits())
            return false;
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (!digits())
                return false;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (!digits())
                return false;
        }
        return true;
    }

    bool value(int depth)
    {
        if (depth > 256)
            return false;
        skipWs();
        if (pos >= s.size())
            return false;
        char c = s[pos];
        if (c == '{') {
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return false;
                ++pos;
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos >= s.size())
                    return false;
                if (s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos >= s.size())
                    return false;
                if (s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return false;
            }
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }
};

} // namespace

bool
jsonValid(const std::string& text)
{
    JsonLint lint{text};
    if (!lint.value(0))
        return false;
    lint.skipWs();
    return lint.pos == text.size();
}

// --- DOM parser -------------------------------------------------------

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& [name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

double
JsonValue::asDouble() const
{
    if (kind != Kind::Number)
        return 0.0;
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t
JsonValue::asU64() const
{
    if (kind != Kind::Number || text.empty() || text[0] == '-')
        return 0;
    char* end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    return end && *end == '\0' ? v : 0;
}

namespace {

/**
 * Recursive-descent parser over the same grammar JsonLint accepts.
 * Kept separate from the linter so the validation-only path stays
 * allocation-free.
 */
struct JsonParser
{
    const std::string& s;
    std::size_t pos = 0;
    std::string err;

    bool fail(const std::string& why)
    {
        err = why + " at offset " + std::to_string(pos);
        return false;
    }

    void skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool literal(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (s.compare(pos, n, lit) != 0)
            return fail(std::string("expected '") + lit + "'");
        pos += n;
        return true;
    }

    bool string(std::string* out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        out->clear();
        while (pos < s.size()) {
            char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return fail("truncated escape");
                char e = s[pos];
                switch (e) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[pos])))
                            return fail("bad \\u escape");
                        char h = s[pos];
                        unsigned digit =
                            h <= '9' ? static_cast<unsigned>(h - '0')
                                     : (static_cast<unsigned>(h | 0x20) -
                                        'a' + 10);
                        code = code * 16 + digit;
                    }
                    // The emitter only produces \u00XX control
                    // escapes; full UTF-16 surrogate handling is out
                    // of scope for this parser.
                    if (code > 0x7f)
                        return fail("non-ASCII \\u escape");
                    *out += static_cast<char>(code);
                    break;
                }
                default:
                    return fail("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control character in string");
            } else {
                *out += c;
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool digits()
    {
        std::size_t start = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        return pos > start;
    }

    bool number(JsonValue* out)
    {
        std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (!digits())
            return fail("expected number");
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("expected fraction digits");
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("expected exponent digits");
        }
        out->kind = JsonValue::Kind::Number;
        out->text = s.substr(start, pos - start);
        return true;
    }

    bool value(JsonValue* out, int depth)
    {
        if (depth > 256)
            return fail("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        char c = s[pos];
        if (c == '{') {
            ++pos;
            out->kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!string(&key))
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue member;
                if (!value(&member, depth + 1))
                    return false;
                out->members.emplace_back(std::move(key),
                                          std::move(member));
                skipWs();
                if (pos >= s.size())
                    return fail("unterminated object");
                if (s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out->kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue item;
                if (!value(&item, depth + 1))
                    return false;
                out->items.push_back(std::move(item));
                skipWs();
                if (pos >= s.size())
                    return fail("unterminated array");
                if (s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return string(&out->text);
        }
        if (c == 't') {
            out->kind = JsonValue::Kind::Bool;
            out->bool_value = true;
            return literal("true");
        }
        if (c == 'f') {
            out->kind = JsonValue::Kind::Bool;
            out->bool_value = false;
            return literal("false");
        }
        if (c == 'n') {
            out->kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return number(out);
    }
};

} // namespace

bool
jsonParse(const std::string& text, JsonValue* out, std::string* err)
{
    JsonParser parser{text, 0, {}};
    JsonValue v;
    if (!parser.value(&v, 0)) {
        if (err)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.pos != text.size()) {
        if (err)
            *err = "trailing garbage at offset " +
                   std::to_string(parser.pos);
        return false;
    }
    *out = std::move(v);
    return true;
}

} // namespace qprac
