#ifndef MVIEW_RELATIONAL_VALUE_H_
#define MVIEW_RELATIONAL_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>

namespace mview {

/// The attribute types supported by the engine.
///
/// The paper assumes all attributes range over discrete, finite domains that
/// can be mapped to integers ("we use integer values in all examples"); the
/// Rosenkrantz–Hunt satisfiability machinery of Section 4 is only defined for
/// such domains.  We additionally support strings for realistic workloads;
/// conditions over string attributes are evaluated exactly by the
/// differential machinery, while the irrelevance filter treats atoms it
/// cannot reason about conservatively (see `predicate/substitution.h`).
enum class ValueType : uint8_t {
  kInt64,
  kString,
};

/// Returns a printable name for a value type ("int64" / "string").
const char* ValueTypeName(ValueType type);

/// A single attribute value: a 64-bit integer or a string.
///
/// Values are ordered and hashable.  Comparisons between values of different
/// types throw `Error` — schemas are statically typed and the condition
/// validator rejects mixed-type atoms, so such a comparison indicates a bug.
///
/// Layout: a 16-byte tagged union of the integer and an owned, separately
/// allocated `std::string` (a `std::variant` of the two is 40 bytes).  Every
/// tuple of every base relation, view, and index key is a vector of these,
/// so the integer case — the paper's domain — pays no string-sized slot;
/// a string value pays one extra heap allocation instead.  A moved-from
/// value is the integer 0.
class Value {
 public:
  /// Constructs the integer value 0.
  Value() : int_(0), type_(ValueType::kInt64) {}
  /// Constructs an integer value (implicit by design, for literals).
  Value(int64_t v) : int_(v), type_(ValueType::kInt64) {}  // NOLINT
  /// Constructs an integer value from a plain int literal.
  Value(int v) : int_(v), type_(ValueType::kInt64) {}  // NOLINT
  /// Constructs a string value.
  Value(std::string v)  // NOLINT
      : str_(new std::string(std::move(v))), type_(ValueType::kString) {}
  /// Constructs a string value from a C literal.
  Value(const char* v)  // NOLINT
      : str_(new std::string(v)), type_(ValueType::kString) {}

  Value(const Value& other) : type_(other.type_) {
    if (type_ == ValueType::kInt64) {
      int_ = other.int_;
    } else {
      str_ = new std::string(*other.str_);
    }
  }
  Value(Value&& other) noexcept : type_(other.type_) {
    if (type_ == ValueType::kInt64) {
      int_ = other.int_;
    } else {
      str_ = other.str_;
      other.type_ = ValueType::kInt64;
      other.int_ = 0;
    }
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (type_ == ValueType::kString) delete str_;
  }

  /// Returns the runtime type of this value.
  ValueType type() const { return type_; }

  /// Returns the integer payload; throws if this is not an integer.
  int64_t AsInt64() const {
    if (type_ != ValueType::kInt64) ThrowWrongType("an int64");
    return int_;
  }

  /// Returns the string payload; throws if this is not a string.
  const std::string& AsString() const {
    if (type_ != ValueType::kString) ThrowWrongType("a string");
    return *str_;
  }

  /// Three-way comparison; throws on mixed-type comparison.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    return type_ == ValueType::kInt64 ? int_ == other.int_
                                      : *str_ == *other.str_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Returns a hash suitable for unordered containers.
  std::size_t Hash() const;

  /// A process-independent hash (FNV-1a over a type tag and the payload
  /// bytes).  Unlike `Hash()` — which may vary with the standard library —
  /// this is stable across runs and platforms, so hash-partition
  /// assignments derived from it survive checkpoint/recovery round-trips.
  uint64_t StableHash() const;

  /// Renders the value for diagnostics ("42" or "\"abc\"").
  std::string ToString() const;

 private:
  [[noreturn]] void ThrowWrongType(const char* wanted) const;

  union {
    int64_t int_;
    std::string* str_;  // owned; non-null while type_ == kString
  };
  ValueType type_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged union");

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace mview

namespace std {
template <>
struct hash<mview::Value> {
  std::size_t operator()(const mview::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // MVIEW_RELATIONAL_VALUE_H_
