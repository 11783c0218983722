#include "common/json.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>

#include "common/expect.hpp"

namespace ddmc::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

std::string Object::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::string Array::dump() const {
  std::string out = "[";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += items_[i];
  }
  return out + "]";
}

void write_file(const std::string& path, const Object& root) {
  std::ofstream os(path);
  DDMC_REQUIRE(os.good(), "cannot open JSON output file: " + path);
  os << root.dump() << "\n";
}

// ---------------------------------------------------------------- parsing --

namespace {

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw invalid_argument("JSON parse error at offset " + std::to_string(pos) +
                         ": " + what);
}

}  // namespace

bool Value::as_bool() const {
  DDMC_REQUIRE(is_bool(), "JSON value is not a boolean");
  return bool_;
}

double Value::as_number() const {
  DDMC_REQUIRE(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  DDMC_REQUIRE(is_string(), "JSON value is not a string");
  return string_;
}

std::size_t Value::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  throw invalid_argument("JSON value is not an array or object");
}

const Value& Value::at(std::size_t index) const {
  DDMC_REQUIRE(is_array(), "JSON value is not an array");
  DDMC_REQUIRE(index < array_.size(),
               "JSON array index " + std::to_string(index) + " out of range");
  return array_[index];
}

bool Value::contains(const std::string& key) const {
  DDMC_REQUIRE(is_object(), "JSON value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Value& Value::at(const std::string& key) const {
  DDMC_REQUIRE(is_object(), "JSON value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  throw invalid_argument("JSON object has no key '" + key + "'");
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  DDMC_REQUIRE(is_object(), "JSON value is not an object");
  return object_;
}

/// Single-pass recursive-descent parser over the input string.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail_at(pos_, "nesting deeper than " + std::to_string(kMaxDepth) +
                            " levels");
        }
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.kind_ = Value::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (literal("true")) {
          Value v;
          v.kind_ = Value::Kind::kBool;
          v.bool_ = true;
          return v;
        }
        fail_at(pos_, "bad literal");
      case 'f':
        if (literal("false")) {
          Value v;
          v.kind_ = Value::Kind::kBool;
          v.bool_ = false;
          return v;
        }
        fail_at(pos_, "bad literal");
      case 'n':
        if (literal("null")) return Value{};
        fail_at(pos_, "bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail_at(pos_, "short \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail_at(pos_ - 1, "bad \\u escape digit");
          }
          // BMP-only UTF-8 encoding; the serializer never emits surrogates.
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
        default: fail_at(pos_ - 1, "unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      fail_at(start, "malformed number '" + token + "'");
    }
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.number_ = parsed;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace ddmc::json
