#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perspective::harness
{

std::uint64_t
Json::asUint() const
{
    if (holds<std::uint64_t>())
        return std::get<std::uint64_t>(v_);
    double d = std::get<double>(v_);
    return static_cast<std::uint64_t>(d);
}

double
Json::asDouble() const
{
    if (holds<std::uint64_t>())
        return static_cast<double>(std::get<std::uint64_t>(v_));
    return std::get<double>(v_);
}

const Json &
Json::at(const std::string &key) const
{
    return asObject().at(key);
}

bool
Json::contains(const std::string &key) const
{
    return isObject() && asObject().count(key) != 0;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

void
Json::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

void
Json::writeIndented(std::ostream &os, int indent, int depth) const
{
    auto pad = [&](int d) {
        if (indent > 0) {
            os.put('\n');
            for (int i = 0; i < indent * d; ++i)
                os.put(' ');
        }
    };

    if (holds<std::nullptr_t>()) {
        os << "null";
    } else if (holds<bool>()) {
        os << (std::get<bool>(v_) ? "true" : "false");
    } else if (holds<std::uint64_t>()) {
        os << std::get<std::uint64_t>(v_);
    } else if (holds<double>()) {
        double d = std::get<double>(v_);
        if (!std::isfinite(d)) {
            os << "null"; // JSON has no Inf/NaN
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        os << buf;
    } else if (holds<std::string>()) {
        os << jsonQuote(std::get<std::string>(v_));
    } else if (holds<Array>()) {
        const Array &a = std::get<Array>(v_);
        if (a.empty()) {
            os << "[]";
            return;
        }
        os.put('[');
        bool first = true;
        for (const Json &e : a) {
            if (!first)
                os.put(',');
            first = false;
            pad(depth + 1);
            e.writeIndented(os, indent, depth + 1);
        }
        pad(depth);
        os.put(']');
    } else {
        const Object &o = std::get<Object>(v_);
        if (o.empty()) {
            os << "{}";
            return;
        }
        os.put('{');
        bool first = true;
        for (const auto &[k, e] : o) {
            if (!first)
                os.put(',');
            first = false;
            pad(depth + 1);
            os << jsonQuote(k) << (indent > 0 ? ": " : ":");
            e.writeIndented(os, indent, depth + 1);
        }
        pad(depth);
        os.put('}');
    }
}

namespace
{

/** Recursive-descent parser over a string view of the document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("json parse error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json(nullptr);
            fail("bad literal");
          default: return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            char e = s_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("short \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Only BMP code points are emitted by our writer;
                // encode as UTF-8.
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    Json
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-'))
            ++pos_;
        std::string tok = s_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            fail("bad number");
        // Non-negative integers stay exact u64; everything else is
        // a double.
        if (tok.find_first_of(".eE-") == std::string::npos) {
            std::uint64_t u = 0;
            auto [p, ec] = std::from_chars(
                tok.data(), tok.data() + tok.size(), u);
            if (ec == std::errc() && p == tok.data() + tok.size())
                return Json(u);
        }
        try {
            return Json(std::stod(tok));
        } catch (const std::exception &) {
            fail("bad number");
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json::Array out;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Json(std::move(out));
        }
        for (;;) {
            out.push_back(parseValue());
            skipWs();
            char c = peek();
            ++pos_;
            if (c == ']')
                return Json(std::move(out));
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json::Object out;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Json(std::move(out));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            out[key] = parseValue();
            skipWs();
            char c = peek();
            ++pos_;
            if (c == '}')
                return Json(std::move(out));
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace perspective::harness
