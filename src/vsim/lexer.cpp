#include "vsim/lexer.h"

#include <stdexcept>

namespace hlsw::vsim {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("vsim lex error at line " + std::to_string(line) +
                           ": " + what);
}

// ASCII character classes (the "C" locale's, without the locale lookup).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool ident_start(char c) {
  const char l = static_cast<char>(c | 0x20);
  return (l >= 'a' && l <= 'z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || is_digit(c); }

int digit_value(char c, int base, int line) {
  int v;
  if (c >= '0' && c <= '9') v = c - '0';
  else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
  else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
  else v = -1;
  if (v < 0 || v >= base) fail(line, std::string("bad digit '") + c + "'");
  return v;
}

// Length of the operator or punctuation token starting with `c` (followed
// by `c1`, `c2`): the longest match, or 0 for a character that starts no
// token.
std::size_t symbol_length(char c, char c1, char c2) {
  switch (c) {
    case '<':
    case '>':  // << <<< <= and >> >>> >=
      if (c1 == c) return c2 == c ? 3 : 2;
      return c1 == '=' ? 2 : 1;
    case '=':
    case '!':  // == === and != !==
      if (c1 == '=') return c2 == '=' ? 3 : 2;
      return 1;
    case '&':
    case '|':  // && ||
      return c1 == c ? 2 : 1;
    case '~':  // ~& ~| ~^
      return c1 == '&' || c1 == '|' || c1 == '^' ? 2 : 1;
    case '^':  // ^~
      return c1 == '~' ? 2 : 1;
    case '(': case ')': case '[': case ']': case '{': case '}':
    case ':': case ';': case ',': case '.': case '@': case '#': case '?':
    case '+': case '-': case '*': case '/': case '%':
      return 1;
    default:
      return 0;
  }
}

}  // namespace

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  out.reserve(n / 3 + 1);  // emitted Verilog runs ~3.6 bytes per token

  const auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i >= n) fail(line, "unterminated block comment");
      i += 2;
      continue;
    }
    if (c == '`') {  // compiler directive: skip to end of line
      while (i < n && src[i] != '\n') ++i;
      continue;
    }

    Token t;
    t.line = line;

    if (c == '"') {
      t.kind = Tok::kString;
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\n') fail(line, "unterminated string");
        if (src[i] == '\\' && i + 1 < n) {
          const char e = src[i + 1];
          t.text.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
          i += 2;
        } else {
          t.text.push_back(src[i++]);
        }
      }
      if (i >= n) fail(line, "unterminated string");
      ++i;
      out.push_back(std::move(t));
      continue;
    }

    const std::size_t start = i;
    if ((c == '$' && ident_start(peek(1))) || ident_start(c)) {
      t.kind = c == '$' ? Tok::kSysName : Tok::kIdent;
      ++i;
      while (i < n && ident_char(src[i])) ++i;
      t.text.assign(src, start, i - start);
      out.push_back(std::move(t));
      continue;
    }

    if (is_digit(c) || (c == '\'' && ident_char(peek(1)))) {
      // Optional decimal size, then optional '<s><base> digits. The digit
      // run is also the value of a plain decimal, which may exceed 64; as
      // a size it may not, so remember (stickily, past any wrap) if it did.
      unsigned long long size = 0;
      bool have_size = false;
      bool oversized = false;
      while (i < n && is_digit(src[i])) {
        size = size * 10 + static_cast<unsigned long long>(src[i] - '0');
        oversized = oversized || size > 64;
        have_size = true;
        ++i;
      }
      if (i < n && src[i] == '\'') {
        if (oversized || (have_size && size < 1))
          fail(line, "literal width out of the supported 1..64 range");
        ++i;
        bool sflag = false;
        if (i < n && (src[i] == 's' || src[i] == 'S')) {
          sflag = true;
          ++i;
        }
        if (i >= n) fail(line, "truncated based literal");
        int base;
        switch (src[i]) {
          case 'd': case 'D': base = 10; break;
          case 'h': case 'H': base = 16; break;
          case 'b': case 'B': base = 2; break;
          case 'o': case 'O': base = 8; break;
          default: fail(line, "unknown literal base");
        }
        ++i;
        unsigned long long v = 0;
        bool any = false;
        for (; i < n && ident_char(src[i]); ++i) {
          if (src[i] == '_') continue;
          v = v * static_cast<unsigned long long>(base) +
              static_cast<unsigned long long>(
                  digit_value(src[i], base, line));
          any = true;
        }
        if (!any) fail(line, "based literal without digits");
        t.kind = Tok::kNumber;
        t.text.assign(src, start, i - start);
        t.value = v;
        t.width = have_size ? static_cast<int>(size) : 32;
        if (t.width < 64) t.value &= (1ULL << t.width) - 1;
        t.sized = have_size;
        t.is_signed = sflag;
        out.push_back(std::move(t));
        continue;
      }
      // Plain unsized decimal: 32-bit signed per the LRM.
      t.kind = Tok::kNumber;
      t.text.assign(src, start, i - start);
      t.value = size;
      t.width = 32;
      t.sized = false;
      t.is_signed = true;
      out.push_back(std::move(t));
      continue;
    }

    const std::size_t len = symbol_length(c, peek(1), peek(2));
    if (len == 0) fail(line, std::string("unexpected character '") + c + "'");
    t.kind = Tok::kSymbol;
    t.text.assign(src, start, len);
    i += len;
    out.push_back(std::move(t));
  }

  Token eof;
  eof.kind = Tok::kEof;
  eof.line = line;
  out.push_back(std::move(eof));
  return out;
}

}  // namespace hlsw::vsim
