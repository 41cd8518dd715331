#ifndef AQUA_COMMON_VALUE_H_
#define AQUA_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"

namespace aqua {

/// Runtime type tag of a `Value`.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kRef,  ///< reference to another object (an Oid)
};

const char* ValueTypeToString(ValueType type);

/// A dynamically typed attribute value.
///
/// AQUA objects carry stored attributes (§3.1 restricts alphabet-predicates
/// to stored attributes, constants and comparisons); `Value` is the runtime
/// representation of one attribute or constant.
class Value {
 public:
  /// Constructs the null value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Int(int64_t v) { return Value(Rep(std::in_place_index<2>, v)); }
  static Value Double(double v) {
    return Value(Rep(std::in_place_index<3>, v));
  }
  static Value String(std::string v) {
    return Value(Rep(std::in_place_index<4>, std::move(v)));
  }
  static Value Ref(Oid oid) { return Value(Rep(std::in_place_index<5>, oid)); }

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_ref() const { return type() == ValueType::kRef; }
  /// True for int or double.
  bool is_numeric() const { return is_int() || is_double(); }

  bool bool_value() const { return std::get<1>(rep_); }
  int64_t int_value() const { return std::get<2>(rep_); }
  double double_value() const { return std::get<3>(rep_); }
  const std::string& string_value() const { return std::get<4>(rep_); }
  Oid ref_value() const { return std::get<5>(rep_); }

  /// Numeric value widened to double; valid only when `is_numeric()`.
  double as_double() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }

  /// Deep (value) equality with int/double numeric coercion.
  /// Nulls compare equal to nulls only. Inline: it is the compare behind
  /// every `==`/`!=` alphabet-predicate probe.
  bool Equals(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      if (is_int() && other.is_int()) return int_value() == other.int_value();
      return as_double() == other.as_double();
    }
    return rep_ == other.rep_;
  }

  /// Three-way comparison for ordering within one comparable family
  /// (numeric with coercion, string, bool, ref by oid; null sorts first).
  /// Returns TypeError when the two values are not comparable.
  Result<int> Compare(const Value& other) const;

  /// A total order usable for canonicalization: orders first by type tag,
  /// then by value. Unlike `Compare` this never fails.
  bool TotalLess(const Value& other) const;

  size_t Hash() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
  friend bool operator!=(const Value& a, const Value& b) {
    return !a.Equals(b);
  }

 private:
  using Rep =
      std::variant<std::monostate, bool, int64_t, double, std::string, Oid>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace aqua

namespace std {
template <>
struct hash<aqua::Value> {
  size_t operator()(const aqua::Value& v) const noexcept { return v.Hash(); }
};
}  // namespace std

#endif  // AQUA_COMMON_VALUE_H_
