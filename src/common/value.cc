#include "common/value.h"

#include <functional>
#include <sstream>

namespace aqua {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kRef:
      return "ref";
  }
  return "unknown";
}

Result<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = int_value(), b = other.int_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = as_double(), b = other.as_double();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    return Status::TypeError("cannot compare " +
                             std::string(ValueTypeToString(type())) + " with " +
                             ValueTypeToString(other.type()));
  }
  switch (type()) {
    case ValueType::kBool: {
      int a = bool_value() ? 1 : 0, b = other.bool_value() ? 1 : 0;
      return a - b;
    }
    case ValueType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kRef: {
      uint64_t a = ref_value().value, b = other.ref_value().value;
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default:
      return Status::Internal("unreachable in Value::Compare");
  }
}

bool Value::TotalLess(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = as_double(), b = other.as_double();
    if (a != b) return a < b;
    // Stabilize int-vs-double ties by type tag.
    return type() < other.type();
  }
  if (type() != other.type()) return type() < other.type();
  auto cmp = Compare(other);
  return cmp.ok() && *cmp < 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kBool:
      return std::hash<bool>{}(bool_value());
    case ValueType::kInt:
      // Hash ints via double so numerically equal int/double values that
      // compare Equals() also hash equal.
      return std::hash<double>{}(static_cast<double>(int_value()));
    case ValueType::kDouble:
      // 0.0 and -0.0 compare equal, so they must hash equal.
      return std::hash<double>{}(double_value() == 0.0 ? 0.0 : double_value());
    case ValueType::kString:
      return std::hash<std::string>{}(string_value());
    case ValueType::kRef:
      return std::hash<Oid>{}(ref_value()) ^ 0x517cc1b727220a95ULL;
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kNull:
      os << "null";
      break;
    case ValueType::kBool:
      os << (bool_value() ? "true" : "false");
      break;
    case ValueType::kInt:
      os << int_value();
      break;
    case ValueType::kDouble:
      os << double_value();
      break;
    case ValueType::kString:
      os << '"' << string_value() << '"';
      break;
    case ValueType::kRef:
      os << "@oid:" << ref_value().value;
      break;
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace aqua
