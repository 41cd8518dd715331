#include "object/schema.h"

#include "common/mutex.h"

namespace aqua {

AttrId InternAttrName(const std::string& name) {
  static Mutex mu;
  static std::unordered_map<std::string, AttrId> ids;
  MutexLock lock(mu);
  return ids.emplace(name, static_cast<AttrId>(ids.size())).first->second;
}

TypeDef::TypeDef(std::string name, std::vector<AttrDef> attrs)
    : name_(std::move(name)), attrs_(std::move(attrs)) {
  attr_ids_.reserve(attrs_.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    index_.emplace(attrs_[i].name, i);
    attr_ids_.push_back(InternAttrName(attrs_[i].name));
  }
}

Result<size_t> TypeDef::AttrIndex(const std::string& attr_name) const {
  auto it = index_.find(attr_name);
  if (it == index_.end()) {
    return Status::NotFound("type '" + name_ + "' has no attribute '" +
                            attr_name + "'");
  }
  return it->second;
}

bool TypeDef::HasAttr(const std::string& attr_name) const {
  return index_.count(attr_name) > 0;
}

Result<TypeId> Schema::RegisterType(std::string name,
                                    std::vector<AttrDef> attrs) {
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("type '" + name + "' already registered");
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      if (attrs[i].name == attrs[j].name) {
        return Status::InvalidArgument("duplicate attribute '" +
                                       attrs[i].name + "' in type '" + name +
                                       "'");
      }
    }
  }
  TypeId id = static_cast<TypeId>(types_.size());
  by_name_.emplace(name, id);
  types_.emplace_back(std::move(name), std::move(attrs));
  return id;
}

Result<TypeId> Schema::TypeIdOf(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("unknown type '" + name + "'");
  }
  return it->second;
}

Result<const TypeDef*> Schema::GetType(TypeId id) const {
  if (id >= types_.size()) {
    return Status::NotFound("unknown type id " + std::to_string(id));
  }
  return &types_[id];
}

Result<const TypeDef*> Schema::GetType(const std::string& name) const {
  AQUA_ASSIGN_OR_RETURN(TypeId id, TypeIdOf(name));
  return &types_[id];
}

}  // namespace aqua
