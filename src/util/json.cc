#include "src/util/json.h"

#include <charconv>
#include <cstdint>
#include <cstring>

namespace tas {

// Recursive-descent parser over the RFC 8259 grammar. Nesting is bounded so
// a hostile document cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Document(std::string* error) {
    JsonValue v;
    if (Value(&v, 0) && (pos_ == text_.size() || Fail("trailing characters"))) {
      return v;
    }
    if (error != nullptr) {
      *error = error_ + " at byte " + std::to_string(pos_);
    }
    return std::nullopt;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool Fail(const char* what) {
    if (error_.empty()) {
      error_ = what;
    }
    return false;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }

  void Ws() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' || Peek() == '\r') {
      ++pos_;
    }
  }

  // One value with the whitespace around it.
  bool Value(JsonValue* out, int depth) {
    Ws();
    bool ok;
    switch (Peek()) {
      case '{':
      case '[':
        ok = depth < kMaxDepth ? Container(out, depth) : Fail("nesting too deep");
        break;
      case '"':
        out->type_ = JsonValue::Type::kString;
        ok = String(&out->string_);
        break;
      case 't':
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = Peek() == 't';
        ok = Literal(out->bool_ ? "true" : "false");
        break;
      case 'n':
        ok = Literal("null");
        break;
      default:
        out->type_ = JsonValue::Type::kNumber;
        ok = Number(&out->number_);
    }
    Ws();
    return ok;
  }

  // An object or an array; objects also collect their keys.
  bool Container(JsonValue* out, int depth) {
    const bool object = Peek() == '{';
    const char close = object ? '}' : ']';
    out->type_ = object ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    ++pos_;
    Ws();
    if (Consume(close)) {
      return true;
    }
    while (true) {
      if (object) {
        Ws();
        out->keys_.emplace_back();
        if (Peek() != '"' || !String(&out->keys_.back())) {
          return Fail("expected a string key");
        }
        Ws();
        if (!Consume(':')) {
          return Fail("expected ':'");
        }
      }
      out->items_.emplace_back();
      if (!Value(&out->items_.back(), depth + 1)) {
        return false;
      }
      if (Consume(close)) {
        return true;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or a closing bracket");
      }
    }
  }

  bool Hex4(uint32_t* out) {
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(p, p + 4, *out, 16).ptr != p + 4) {
      return Fail("bad \\u escape");
    }
    pos_ += 4;
    return true;
  }

  // \uXXXX, with surrogates paired. ASCII decodes; every other code point
  // keeps its escape text, since no writer here emits one.
  bool Unicode(std::string* out) {
    const size_t start = pos_ - 2;  // The backslash.
    uint32_t cp = 0;
    if (!Hex4(&cp)) {
      return false;
    }
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      uint32_t low = 0;
      if (!Consume('\\') || !Consume('u') || !Hex4(&low) || low < 0xDC00 || low > 0xDFFF) {
        return Fail("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return Fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else {
      out->append(text_.substr(start, pos_ - start));
    }
    return true;
  }

  bool String(std::string* out) {
    static constexpr char kEscapes[] = "\"\\/bfnrt";
    static constexpr char kDecoded[] = "\"\\/\b\f\n\r\t";
    ++pos_;  // Opening quote.
    while (true) {
      const char c = Peek();
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      ++pos_;
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      const char e = Peek();
      ++pos_;
      const char* hit = e != '\0' ? std::strchr(kEscapes, e) : nullptr;
      if (hit != nullptr) {
        out->push_back(kDecoded[hit - kEscapes]);
      } else if (e != 'u' || !Unicode(out)) {
        return Fail("bad escape");
      }
    }
  }

  bool Digits() {
    const size_t start = pos_;
    while (Peek() >= '0' && Peek() <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(double* out) {
    const size_t start = pos_;
    Consume('-');
    const bool zero = Consume('0');
    if ((zero && Peek() >= '0' && Peek() <= '9') || (!zero && !Digits())) {
      return Fail("expected a value");
    }
    if (Consume('.') && !Digits()) {
      return Fail("expected digits after '.'");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) {
        Consume('-');
      }
      if (!Digits()) {
        return Fail("expected exponent digits");
      }
    }
    std::from_chars(text_.data() + start, text_.data() + pos_, *out);
    return true;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Fail("bad literal");
    }
    pos_ += lit.size();
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) {
      return &items_[i];
    }
  }
  return nullptr;
}

std::optional<double> JsonValue::FindNumber(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type() == Type::kNumber ? std::optional<double>(v->number()) : std::nullopt;
}

const std::string* JsonValue::FindString(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type() == Type::kString ? &v->str() : nullptr;
}

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return JsonParser(text).Document(error);
}

}  // namespace tas
