// Strict JSON reader (RFC 8259): parses one document into a small tree. The
// one reader for the JSON this repository writes (bench reports, trace
// exports, watchdog bundles). Malformed input is rejected with the byte
// offset of the first error, never guessed at. Numbers are held as double,
// so integers above 2^53 (the benches' fingerprints) read back rounded.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tas {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }
  // Array elements, or object member values in document order.
  const std::vector<JsonValue>& items() const { return items_; }
  // Object member keys in document order, parallel to items().
  const std::vector<std::string>& keys() const { return keys_; }

  // Object member `key` (the first one, if the document repeats it);
  // nullptr when absent or when this is not an object.
  const JsonValue* Find(std::string_view key) const;
  // Member `key` as a number / string; empty (nullopt / nullptr) when absent
  // or of another type.
  std::optional<double> FindNumber(std::string_view key) const;
  const std::string* FindString(std::string_view key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<std::string> keys_;  // Object keys, parallel to items_.
  std::vector<JsonValue> items_;
};

// Parses `text` as exactly one JSON value (whitespace around it allowed).
// On malformed input returns nullopt and, if `error` is given, describes the
// first problem and its byte offset.
std::optional<JsonValue> ParseJson(std::string_view text, std::string* error = nullptr);

}  // namespace tas

#endif  // SRC_UTIL_JSON_H_
