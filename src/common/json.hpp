#pragma once
/// \file json.hpp
/// \brief Minimal JSON serializer + parser shared by benches, the telemetry
/// exporters and the tests that round-trip their output.
///
/// The serializer grew up inside bench/bench_common.hpp and was about to be
/// copied a third time for the telemetry exporters; it now lives here as the
/// one JSON emission path in the repository (bench_common re-exports it for
/// the existing benches). It is deliberately tiny: ordered objects, arrays,
/// max_digits10 numbers so doubles round-trip bitwise, no allocation tricks.
///
/// The parser is the serializer's test harness: enough strict JSON to read
/// back what the serializer (or the Chrome trace / Prometheus JSON
/// exporters) wrote and assert on it — objects, arrays, strings with the
/// escapes the serializer emits plus \uXXXX (BMP only), numbers, booleans
/// and null. It is not a general-purpose document API and keeps whole parsed
/// values in memory; telemetry exports are kilobytes, not gigabytes.

#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ddmc::json {

// --------------------------------------------------------------- emission --

/// Escape \p s for inclusion inside a JSON string literal (no quotes added).
std::string escape(const std::string& s);

/// Serialize \p v with max_digits10 precision so it round-trips bitwise.
std::string number(double v);

/// Ordered JSON object; values are stored pre-serialized, keys keep their
/// insertion order (stable output diffs).
class Object {
 public:
  Object& set(const std::string& key, const std::string& v) {
    return set_raw(key, "\"" + escape(v) + "\"");
  }
  Object& set(const std::string& key, const char* v) {
    return set(key, std::string(v));
  }
  Object& set(const std::string& key, double v) {
    return set_raw(key, number(v));
  }
  Object& set(const std::string& key, std::size_t v) {
    return set_raw(key, std::to_string(v));
  }
  Object& set(const std::string& key, bool v) {
    return set_raw(key, v ? "true" : "false");
  }
  /// \p json must already be valid JSON (nested object/array).
  Object& set_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }

  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

class Array {
 public:
  Array& add(const Object& obj) { return add_raw(obj.dump()); }
  Array& add(const std::string& v) { return add_raw("\"" + escape(v) + "\""); }
  Array& add(double v) { return add_raw(number(v)); }
  Array& add_raw(std::string json) {
    items_.push_back(std::move(json));
    return *this;
  }

  std::string dump() const;

 private:
  std::vector<std::string> items_;
};

/// Write \p root to \p path with a trailing newline. Throws
/// ddmc::invalid_argument when the file cannot be opened.
void write_file(const std::string& path, const Object& root);

// ---------------------------------------------------------------- parsing --

/// One parsed JSON value. Object member order is preserved (the serializer
/// is ordered, and tests assert on stable output).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw ddmc::invalid_argument on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access; throws on kind mismatch / out of range.
  std::size_t size() const;
  const Value& at(std::size_t index) const;

  /// Object access; throws on kind mismatch, and at(key) on a missing key.
  bool contains(const std::string& key) const;
  const Value& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

 private:
  friend Value parse(const std::string& text);
  friend class Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Deepest nesting of arrays and objects parse() accepts. The parser
/// recurses once per level, so the cap bounds its stack on hostile input.
inline constexpr std::size_t kMaxDepth = 512;

/// Parse \p text as one strict JSON document (trailing whitespace allowed,
/// anything else after the value is an error). Throws ddmc::invalid_argument
/// with a character offset on malformed input, and on nesting deeper than
/// kMaxDepth.
Value parse(const std::string& text);

}  // namespace ddmc::json
