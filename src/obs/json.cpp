#include "obs/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hlsw::obs {

namespace {

// Largest double below which every integral value is exactly representable.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/Inf
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) <= kMaxExactInt) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest %g form that round-trips.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

Json& Json::push(Json v) {
  assert(type_ == Type::kArray || type_ == Type::kNull);
  type_ = Type::kArray;
  arr_.push_back(std::move(v));
  return *this;
}

std::size_t Json::size() const {
  return type_ == Type::kArray ? arr_.size() : obj_.size();
}

const Json& Json::at(std::size_t i) const {
  assert(type_ == Type::kArray && i < arr_.size());
  return arr_[i];
}

Json& Json::set(std::string_view key, Json v) {
  assert(type_ == Type::kObject || type_ == Type::kNull);
  type_ = Type::kObject;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

void Json::dump_to(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: *out += format_number(num_); break;
    case Type::kString:
      out->push_back('"');
      *out += json_escape(str_);
      out->push_back('"');
      break;
    case Type::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out->push_back(',');
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline_pad(depth);
      out->push_back(']');
      break;
    case Type::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out->push_back(',');
        newline_pad(depth + 1);
        out->push_back('"');
        *out += json_escape(obj_[i].first);
        *out += pretty ? "\": " : "\":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline_pad(depth);
      out->push_back('}');
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(&out, indent, 0);
  return out;
}

// -- Parser -------------------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty())
      err = what + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word)
      return fail("invalid literal");
    pos += word.size();
    return true;
  }

  // RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and
  // its value must be finite. strtod alone would also take "nan", "inf",
  // hex, leading zeros and "1.", and turn 1e400 into an infinity.
  bool parse_number(Json* out) {
    const std::size_t start = pos;
    const auto digits = [&] {
      const std::size_t from = pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
      return pos > from;
    };
    consume('-');
    if (consume('0')) {
      if (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
        return fail("leading zero in number");
    } else if (!digits()) {
      return fail("bad number");
    }
    if (consume('.') && !digits()) return fail("bad number fraction");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("bad number exponent");
    }
    const std::string token(text.substr(start, pos - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) return fail("number out of range");
    *out = Json(v);
    return true;
  }

  static void append_utf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) break;
      char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Json* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null")) return false;
      *out = Json();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      *out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      *out = Json(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      *out = Json::array();
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Json elem;
        if (!parse_value(&elem)) return false;
        out->push(std::move(elem));
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos;
      *out = Json::object();
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        Json value;
        if (!parse_value(&value)) return false;
        out->set(key, std::move(value));
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }
};

}  // namespace

bool Json::parse(std::string_view text, Json* out, std::string* err) {
  Parser p{text, 0, {}};
  Json result;
  if (!p.parse_value(&result)) {
    if (err) *err = p.err;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err) *err = "trailing characters at offset " + std::to_string(p.pos);
    return false;
  }
  *out = std::move(result);
  return true;
}

}  // namespace hlsw::obs
