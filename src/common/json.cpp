#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace ariesim {

JsonWriter& JsonWriter::Key(std::string_view name) {
  String(name);
  *out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Fixed(double v, int digits) {
  uint64_t unit = 1;
  for (int i = 0; i < digits; i++) unit *= 10;
  const uint64_t scaled = static_cast<uint64_t>(
      (v < 0 ? 0.0 : v) * static_cast<double>(unit) + 0.5);
  const std::string frac = std::to_string(scaled % unit);
  return Raw(std::to_string(scaled / unit) + '.' +
             std::string(static_cast<size_t>(digits) - frac.size(), '0') +
             frac);
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  *out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out_ += "\\\""; break;
      case '\\': *out_ += "\\\\"; break;
      case '\n': *out_ += "\\n"; break;
      case '\r': *out_ += "\\r"; break;
      case '\t': *out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out_ += buf;
        } else {
          *out_ += c;
        }
    }
  }
  *out_ += '"';
  return *this;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator + shallow field collector. No
// allocation-heavy DOM: blackbox_dump and the tests only need "is this a
// complete document" plus the scalar fields of the first two object levels.
// ---------------------------------------------------------------------------

namespace {

struct JsonCursor {
  const char* begin;
  const char* p;
  const char* end;
  std::map<std::string, std::string>* fields;
  std::string* err;
};

bool Fail(JsonCursor* c, const char* msg) {
  if (c->err != nullptr && c->err->empty()) {
    *c->err = msg;
    *c->err +=
        " at offset " + std::to_string(static_cast<size_t>(c->p - c->begin));
  }
  return false;
}

void SkipWs(JsonCursor* c) {
  while (c->p < c->end &&
         (*c->p == ' ' || *c->p == '\t' || *c->p == '\n' || *c->p == '\r')) {
    ++c->p;
  }
}

bool ParseString(JsonCursor* c, std::string* out) {
  if (c->p >= c->end || *c->p != '"') return Fail(c, "expected string");
  ++c->p;
  while (c->p < c->end) {
    unsigned char ch = static_cast<unsigned char>(*c->p);
    if (ch == '"') {
      ++c->p;
      return true;
    }
    if (ch == '\\') {
      ++c->p;
      if (c->p >= c->end) return Fail(c, "truncated escape");
      char e = *c->p;
      switch (e) {
        case '"': if (out) *out += '"'; break;
        case '\\': if (out) *out += '\\'; break;
        case '/': if (out) *out += '/'; break;
        case 'b': if (out) *out += '\b'; break;
        case 'f': if (out) *out += '\f'; break;
        case 'n': if (out) *out += '\n'; break;
        case 'r': if (out) *out += '\r'; break;
        case 't': if (out) *out += '\t'; break;
        case 'u': {
          if (c->end - c->p < 5) return Fail(c, "truncated \\u escape");
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(c->p[i]))) {
              return Fail(c, "bad \\u escape");
            }
          }
          unsigned cp = 0;
          for (int i = 1; i <= 4; ++i) {
            char d = c->p[i];
            cp = cp * 16 + static_cast<unsigned>(
                               d <= '9' ? d - '0' : (d | 0x20) - 'a' + 10);
          }
          // ASCII decodes exactly (all our own escaper ever emits);
          // anything wider keeps a placeholder — the record is forensic
          // text, not a unicode round-trip.
          if (out) *out += cp < 0x80 ? static_cast<char>(cp) : '?';
          c->p += 4;
          break;
        }
        default:
          return Fail(c, "bad escape character");
      }
      ++c->p;
      continue;
    }
    if (ch < 0x20) return Fail(c, "raw control character in string");
    if (out) *out += static_cast<char>(ch);
    ++c->p;
  }
  return Fail(c, "unterminated string");
}

bool ParseNumber(JsonCursor* c, std::string* out) {
  const char* start = c->p;
  if (c->p < c->end && *c->p == '-') ++c->p;
  if (c->p >= c->end || !std::isdigit(static_cast<unsigned char>(*c->p))) {
    return Fail(c, "bad number");
  }
  while (c->p < c->end && std::isdigit(static_cast<unsigned char>(*c->p))) {
    ++c->p;
  }
  if (c->p < c->end && *c->p == '.') {
    ++c->p;
    if (c->p >= c->end || !std::isdigit(static_cast<unsigned char>(*c->p))) {
      return Fail(c, "bad fraction");
    }
    while (c->p < c->end && std::isdigit(static_cast<unsigned char>(*c->p))) {
      ++c->p;
    }
  }
  if (c->p < c->end && (*c->p == 'e' || *c->p == 'E')) {
    ++c->p;
    if (c->p < c->end && (*c->p == '+' || *c->p == '-')) ++c->p;
    if (c->p >= c->end || !std::isdigit(static_cast<unsigned char>(*c->p))) {
      return Fail(c, "bad exponent");
    }
    while (c->p < c->end && std::isdigit(static_cast<unsigned char>(*c->p))) {
      ++c->p;
    }
  }
  if (out) out->assign(start, static_cast<size_t>(c->p - start));
  return true;
}

bool ParseLiteral(JsonCursor* c, const char* lit, std::string* out) {
  size_t n = std::strlen(lit);
  if (static_cast<size_t>(c->end - c->p) < n ||
      std::memcmp(c->p, lit, n) != 0) {
    return Fail(c, "bad literal");
  }
  c->p += n;
  if (out) *out = lit;
  return true;
}

bool ParseValue(JsonCursor* c, const std::string& path, int depth);

bool ParseObject(JsonCursor* c, const std::string& path, int depth) {
  ++c->p;  // consume '{'
  SkipWs(c);
  if (c->p < c->end && *c->p == '}') {
    ++c->p;
    return true;
  }
  while (true) {
    SkipWs(c);
    std::string key;
    if (!ParseString(c, &key)) return false;
    SkipWs(c);
    if (c->p >= c->end || *c->p != ':') return Fail(c, "expected ':'");
    ++c->p;
    SkipWs(c);
    std::string child_path;
    if (depth <= 2) {
      child_path = path.empty() ? key : path + "." + key;
    }
    if (!ParseValue(c, child_path, depth)) return false;
    SkipWs(c);
    if (c->p >= c->end) return Fail(c, "unterminated object");
    if (*c->p == ',') {
      ++c->p;
      continue;
    }
    if (*c->p == '}') {
      ++c->p;
      return true;
    }
    return Fail(c, "expected ',' or '}'");
  }
}

bool ParseArray(JsonCursor* c, int depth) {
  ++c->p;  // consume '['
  SkipWs(c);
  if (c->p < c->end && *c->p == ']') {
    ++c->p;
    return true;
  }
  while (true) {
    SkipWs(c);
    if (!ParseValue(c, std::string(), depth)) return false;
    SkipWs(c);
    if (c->p >= c->end) return Fail(c, "unterminated array");
    if (*c->p == ',') {
      ++c->p;
      continue;
    }
    if (*c->p == ']') {
      ++c->p;
      return true;
    }
    return Fail(c, "expected ',' or ']'");
  }
}

bool ParseValue(JsonCursor* c, const std::string& path, int depth) {
  if (depth > 64) return Fail(c, "nesting too deep");
  SkipWs(c);
  if (c->p >= c->end) return Fail(c, "unexpected end of input");
  // Collect scalars of the first two object levels; path is empty for
  // deeper values and array elements, so they are validated only.
  const bool collect = c->fields != nullptr && !path.empty() && depth <= 2;
  std::string scalar;
  std::string* sink = collect ? &scalar : nullptr;
  bool ok;
  switch (*c->p) {
    case '{': ok = ParseObject(c, path, depth + 1); break;
    case '[': ok = ParseArray(c, depth + 1); break;
    case '"': ok = ParseString(c, sink); break;
    case 't': ok = ParseLiteral(c, "true", sink); break;
    case 'f': ok = ParseLiteral(c, "false", sink); break;
    case 'n': ok = ParseLiteral(c, "null", sink); break;
    default: ok = ParseNumber(c, sink); break;
  }
  if (ok && sink != nullptr) (*c->fields)[path] = scalar;
  return ok;
}

}  // namespace

bool ParseJson(const std::string& text,
               std::map<std::string, std::string>* fields, std::string* err) {
  JsonCursor c{text.data(), text.data(), text.data() + text.size(), fields,
               err};
  if (!ParseValue(&c, std::string(), 0)) return false;
  SkipWs(&c);
  if (c.p != c.end) {
    if (err != nullptr && err->empty()) *err = "trailing garbage after value";
    return false;
  }
  return true;
}

}  // namespace ariesim
