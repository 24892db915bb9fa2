// The engine's one JSON writer and reader: every JSON surface formats
// through JsonWriter, so comma placement, escaping and decimal rounding are
// decided here only. See docs/OBSERVABILITY.md "JSON conventions".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace ariesim {

/// Appends one JSON document to a caller-owned string, placing commas
/// itself. Calls chain:
///   w.BeginObject().Key("n").Uint(3).Key("p50_us").Fixed(1.5, 3).EndObject();
///   // {"n":3,"p50_us":1.500}
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// Object member name; the next call writes its value.
  JsonWriter& Key(std::string_view name);
  /// Quoted; escapes `"`, `\` and control characters.
  JsonWriter& String(std::string_view s);
  JsonWriter& Uint(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  /// Exactly `digits` (>= 1) fraction digits, rounded half up; negative
  /// values clamp to 0.
  JsonWriter& Fixed(double v, int digits);
  /// An already-rendered JSON value, verbatim.
  JsonWriter& Raw(std::string_view json) {
    Separate();
    *out_ += json;
    return *this;
  }

 private:
  // A comma goes before every value or key except the first in its
  // container and a value right after its key.
  void Separate() {
    if (need_comma_) *out_ += ',';
    need_comma_ = true;
  }
  JsonWriter& Open(char bracket) {
    Separate();
    *out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    *out_ += bracket;
    need_comma_ = true;
    return *this;
  }

  std::string* out_;
  bool need_comma_ = false;
};

/// Validate that `text` is one complete JSON value (RFC 8259 subset: full
/// grammar, \u escapes accepted, depth-limited). On success, `fields` (if
/// non-null) receives every scalar reachable within two object levels as
/// dotted-path -> unescaped text (e.g. "wal.durable_lsn" -> "4096",
/// "trigger" -> "simulate_crash"); deeper scalars and array elements are
/// validated but not collected. Shared by blackbox_dump, the schema lint and
/// the tests so "parses" means the same thing everywhere.
bool ParseJson(const std::string& text,
               std::map<std::string, std::string>* fields, std::string* err);

}  // namespace ariesim
