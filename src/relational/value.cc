#include "relational/value.h"

#include <functional>
#include <ostream>

#include "util/error.h"

namespace mview {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  if (other.type_ == ValueType::kInt64) {
    if (type_ == ValueType::kString) delete str_;
    int_ = other.int_;
  } else if (type_ == ValueType::kString) {
    // Reuses this value's string capacity (scratch probe keys rely on it).
    *str_ = *other.str_;
  } else {
    str_ = new std::string(*other.str_);
  }
  type_ = other.type_;
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this == &other) return *this;
  if (type_ == ValueType::kString) delete str_;
  type_ = other.type_;
  if (type_ == ValueType::kInt64) {
    int_ = other.int_;
  } else {
    str_ = other.str_;
    other.type_ = ValueType::kInt64;
    other.int_ = 0;
  }
  return *this;
}

void Value::ThrowWrongType(const char* wanted) const {
  internal::ThrowError("value is not ", wanted, ": ", ToString());
}

int Value::Compare(const Value& other) const {
  MVIEW_CHECK(type_ == other.type_, "mixed-type comparison: ", ToString(),
              " vs ", other.ToString());
  if (type_ == ValueType::kInt64) {
    return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
  }
  const int c = str_->compare(*other.str_);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::size_t Value::Hash() const {
  if (type_ == ValueType::kInt64) {
    // Mix so that small integers spread across buckets.
    uint64_t x = static_cast<uint64_t>(int_);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
  return std::hash<std::string>{}(*str_) ^ 0x9e3779b97f4a7c15ULL;
}

uint64_t Value::StableHash() const {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;  // FNV prime
  };
  if (type_ == ValueType::kInt64) {
    mix(0);  // type tag: int64 and string payloads never collide trivially
    uint64_t x = static_cast<uint64_t>(int_);
    for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(x >> (8 * i)));
  } else {
    mix(1);
    for (char c : *str_) mix(static_cast<uint8_t>(c));
  }
  return h;
}

std::string Value::ToString() const {
  if (type_ == ValueType::kInt64) return std::to_string(int_);
  return "\"" + *str_ + "\"";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace mview
