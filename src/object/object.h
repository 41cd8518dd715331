#ifndef AQUA_OBJECT_OBJECT_H_
#define AQUA_OBJECT_OBJECT_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/value.h"
#include "object/schema.h"

namespace aqua {

/// A stored object: identity + type + attribute values.
///
/// Attribute values are stored positionally, aligned with the `TypeDef`'s
/// attribute list; lookup by name goes through the type.
class Object {
 public:
  Object(Oid oid, TypeId type, std::vector<Value> attrs)
      : oid_(oid), type_(type), attrs_(std::move(attrs)) {}

  Oid oid() const { return oid_; }
  TypeId type() const { return type_; }
  const std::vector<Value>& attrs() const { return attrs_; }

  const Value& attr_at(size_t i) const { return attrs_[i]; }

  /// Attribute `attr` read in place, or null when this object's type (as
  /// declared in `schema`) lacks it.
  const Value* FindAttr(const Schema& schema, AttrId attr) const {
    const TypeDef* def = schema.FindType(type_);
    int32_t slot = def == nullptr ? -1 : def->SlotOf(attr);
    return slot < 0 ? nullptr : &attrs_[static_cast<size_t>(slot)];
  }
  void set_attr_at(size_t i, Value v) { attrs_[i] = std::move(v); }

 private:
  Oid oid_;
  TypeId type_;
  std::vector<Value> attrs_;
};

}  // namespace aqua

#endif  // AQUA_OBJECT_OBJECT_H_
