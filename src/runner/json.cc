#include "runner/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace gals::runner::json
{

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : s_(text), error_(error)
    {
    }

    bool
    document(Value &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    /** Deepest object/array nesting read: the parser recurses once
     *  per level, so an input of 100k '[' must fail, not overflow the
     *  stack. Manifests nest 3 deep. */
    static constexpr unsigned maxDepth = 64;

    const std::string &s_;
    std::string &error_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;

    bool
    fail(const std::string &what)
    {
        error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    /** object() or array() one level deeper. */
    template <typename Parse>
    bool
    nested(Parse parse)
    {
        if (depth_ == maxDepth)
            return fail("nesting deeper than " + std::to_string(maxDepth));
        ++depth_;
        const bool ok = parse();
        --depth_;
        return ok;
    }

    bool
    value(Value &out)
    {
        switch (peek()) {
          case '{':
            return nested([&] { return object(out); });
          case '[':
            return nested([&] { return array(out); });
          case '"':
            out.kind = Value::Kind::string;
            return stringToken(out.str);
          case 't':
            out.kind = Value::Kind::boolean;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::boolean;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = Value::Kind::null;
            return literal("null");
          default:
            return number(out);
        }
    }

    bool
    object(Value &out)
    {
        out.kind = Value::Kind::object;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (peek() != '"')
                return fail("expected object key");
            if (!stringToken(key))
                return false;
            skipWs();
            if (peek() != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            Value member;
            if (!value(member))
                return false;
            out.members.emplace_back(std::move(key),
                                     std::move(member));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Value &out)
    {
        out.kind = Value::Kind::array;
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            Value item;
            if (!value(item))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    stringToken(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                return fail("dangling escape");
            switch (s_[pos_]) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 >= s_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 1; k <= 4; ++k) {
                    const char h = s_[pos_ + k];
                    if (!std::isxdigit(
                            static_cast<unsigned char>(h)))
                        return fail("bad \\u escape");
                    code = code * 16 +
                           (h <= '9'   ? h - '0'
                            : h <= 'F' ? h - 'A' + 10
                                       : h - 'a' + 10);
                }
                pos_ += 4;
                // Our writers only \u-escape control characters;
                // encode the BMP code point as UTF-8 for anything
                // else so round-trips stay lossless.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    number(Value &out)
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("expected value");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required after '.'");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("digit required in exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        out.kind = Value::Kind::number;
        out.raw = s_.substr(start, pos_ - start);
        out.number = std::strtod(out.raw.c_str(), nullptr);
        return true;
    }
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

bool
Value::asU64(std::uint64_t &out) const
{
    if (kind != Kind::number || raw.empty() || raw[0] == '-' ||
        raw.find_first_of(".eE") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
    if (errno == ERANGE || end == raw.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parse(const std::string &text, Value &out, std::string &error)
{
    out = Value();
    error.clear();
    return Parser(text, error).document(out);
}

} // namespace gals::runner::json
