#ifndef AQUA_OBJECT_SCHEMA_H_
#define AQUA_OBJECT_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace aqua {

/// Identifier of a registered object type within a `Schema`.
using TypeId = uint32_t;

inline constexpr TypeId kInvalidType = static_cast<TypeId>(-1);

/// Process-wide id of an attribute *name*. Every attribute a `TypeDef`
/// declares and every attribute a `Predicate` reads is interned once, at
/// construction, so the hot read path (`StoreView::FindAttr`) resolves a
/// predicate's attribute in an object's type by comparing small integers
/// instead of hashing the name. Ids are global rather than per schema, so
/// one parsed predicate evaluates against any schema.
using AttrId = uint32_t;

/// Returns the id of `name`, assigning the next id on first sight. Thread
/// safe (one internal mutex); call it at construction time, never per
/// probe. Ids are never reused or freed: the table grows with the number
/// of distinct attribute names the process has seen.
AttrId InternAttrName(const std::string& name);

/// Declaration of one attribute of an object type.
///
/// The `stored` flag mirrors §3.1 of the paper: alphabet-predicates may only
/// mention *stored* attributes (so they are evaluable in constant time); the
/// optimizer — not the user — verifies this against the schema.
struct AttrDef {
  std::string name;
  ValueType type = ValueType::kNull;
  bool stored = true;
};

/// Declaration of an object type: a name plus an ordered attribute list.
class TypeDef {
 public:
  TypeDef(std::string name, std::vector<AttrDef> attrs);

  const std::string& name() const { return name_; }
  const std::vector<AttrDef>& attrs() const { return attrs_; }
  size_t num_attrs() const { return attrs_.size(); }

  /// Returns the positional index of attribute `attr_name`, or NotFound.
  Result<size_t> AttrIndex(const std::string& attr_name) const;

  /// True when the type declares `attr_name`.
  bool HasAttr(const std::string& attr_name) const;

  /// Positional index of the attribute with interned id `id`, or -1 when
  /// the type lacks it. A scan over the type's few attribute ids: no
  /// hashing, no allocation.
  int32_t SlotOf(AttrId id) const {
    for (size_t i = 0; i < attr_ids_.size(); ++i) {
      if (attr_ids_[i] == id) return static_cast<int32_t>(i);
    }
    return -1;
  }

 private:
  std::string name_;
  std::vector<AttrDef> attrs_;
  std::vector<AttrId> attr_ids_;  // parallel to attrs_
  std::unordered_map<std::string, size_t> index_;
};

/// The catalog of object types known to an `ObjectStore`.
class Schema {
 public:
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  /// Registers a new type; fails with AlreadyExists on a duplicate name.
  Result<TypeId> RegisterType(std::string name, std::vector<AttrDef> attrs);

  Result<TypeId> TypeIdOf(const std::string& name) const;
  Result<const TypeDef*> GetType(TypeId id) const;
  Result<const TypeDef*> GetType(const std::string& name) const;
  /// `GetType` without the status: null for an unknown id.
  const TypeDef* FindType(TypeId id) const {
    return id < types_.size() ? &types_[id] : nullptr;
  }

  size_t num_types() const { return types_.size(); }

 private:
  std::vector<TypeDef> types_;
  std::unordered_map<std::string, TypeId> by_name_;
};

}  // namespace aqua

#endif  // AQUA_OBJECT_SCHEMA_H_
