#include "serve/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace domd {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::Append(JsonValue value) { items_.push_back(std::move(value)); }

void JsonValue::Set(std::string key, JsonValue value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

Status JsonValue::NotAnInteger(std::string_view what, double min,
                               double max) const {
  return Status::InvalidArgument(
      std::string(what) + " must be an integer in [" +
      std::to_string(static_cast<std::int64_t>(min)) + ", " +
      std::to_string(static_cast<std::int64_t>(max)) + "], got " +
      Serialize());
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  out += '"';
  return out;
}

namespace {

std::string FormatNumber(double value) {
  // The integer fast-path must skip -0.0: casting to long long would emit
  // "0" and lose the sign on the round-trip (to_chars keeps "-0").
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15 && !(value == 0.0 && std::signbit(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  if (!std::isfinite(value)) return "null";  // JSON has no Inf/NaN.
  std::array<char, 32> buf;
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return ec == std::errc() ? std::string(buf.data(), ptr) : "0";
}

}  // namespace

std::string JsonValue::Serialize() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return FormatNumber(number_);
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ",";
        out += items_[i].Serialize();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ",";
        out += JsonQuote(members_[i].first);
        out += ":";
        out += members_[i].second.Serialize();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

/// Recursive-descent JSON parser over a string_view with a depth cap
/// (untrusted network input must not be able to overflow the stack).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("json: nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue::String(std::move(*s));
    }
    if (c == 't' || c == 'f') return ParseKeyword(c == 't');
    if (c == 'n') {
      if (!Consume("null")) return Status::InvalidArgument("json: bad token");
      return JsonValue::Null();
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseKeyword(bool value) {
    if (!Consume(value ? "true" : "false")) {
      return Status::InvalidArgument("json: bad token");
    }
    return JsonValue::Bool(value);
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      return Status::InvalidArgument("json: malformed number at offset " +
                                     std::to_string(start));
    }
    return JsonValue::Number(value);
  }

  StatusOr<std::string> ParseString() {
    if (text_[pos_] != '"') {
      return Status::InvalidArgument("json: expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
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
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::InvalidArgument("json: truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status::InvalidArgument("json: bad \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode (basic multilingual plane only; surrogate pairs
            // never appear in this codebase's ASCII identifiers).
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
            return Status::InvalidArgument("json: bad escape character");
        }
        continue;
      }
      // Append the plain run up to the next quote or backslash in one call.
      std::size_t stop = pos_ + 1;
      while (stop < text_.size() && text_[stop] != '"' &&
             text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop;
    }
    return Status::InvalidArgument("json: unterminated string");
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      array.Append(std::move(*value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return array;
      }
      return Status::InvalidArgument("json: expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("json: expected ':' after key");
      }
      ++pos_;
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      object.Set(std::move(*key), std::move(*value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return object;
      }
      return Status::InvalidArgument("json: expected ',' or '}'");
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace domd
