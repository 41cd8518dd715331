#include "query/database.h"

namespace aqua {

Status Database::RegisterTree(const std::string& name, Tree tree) {
  if (HasTree(name) || HasList(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  AQUA_RETURN_IF_ERROR(tree.Validate());
  trees_.emplace(name, std::make_shared<const Tree>(std::move(tree)));
  return Status::OK();
}

Status Database::RegisterList(const std::string& name, List list) {
  if (HasTree(name) || HasList(name)) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  lists_.emplace(name, std::make_shared<const List>(std::move(list)));
  return Status::OK();
}

Result<const Tree*> Database::GetTree(const std::string& name) const {
  AQUA_ASSIGN_OR_RETURN(std::shared_ptr<const Tree> tree, ShareTree(name));
  return tree.get();  // trees_ keeps the collection alive
}

Result<const List*> Database::GetList(const std::string& name) const {
  AQUA_ASSIGN_OR_RETURN(std::shared_ptr<const List> list, ShareList(name));
  return list.get();
}

Result<std::shared_ptr<const Tree>> Database::ShareTree(
    const std::string& name) const {
  auto it = trees_.find(name);
  if (it == trees_.end()) {
    return Status::NotFound("no tree collection named '" + name + "'");
  }
  return it->second;
}

Result<std::shared_ptr<const List>> Database::ShareList(
    const std::string& name) const {
  auto it = lists_.find(name);
  if (it == lists_.end()) {
    return Status::NotFound("no list collection named '" + name + "'");
  }
  return it->second;
}

Status Database::CreateIndex(const std::string& collection,
                             const std::string& attr) {
  if (HasTree(collection)) {
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, GetTree(collection));
    return indexes_.CreateTreeIndex(collection, store_, *tree, attr);
  }
  if (HasList(collection)) {
    AQUA_ASSIGN_OR_RETURN(const List* list, GetList(collection));
    return indexes_.CreateListIndex(collection, store_, *list, attr);
  }
  return Status::NotFound("no collection named '" + collection + "'");
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> out;
  for (const auto& [name, tree] : trees_) out.push_back(name);
  for (const auto& [name, list] : lists_) out.push_back(name);
  return out;
}

std::vector<std::string> Database::TreeNames() const {
  std::vector<std::string> out;
  for (const auto& [name, tree] : trees_) out.push_back(name);
  return out;
}

std::vector<std::string> Database::ListNames() const {
  std::vector<std::string> out;
  for (const auto& [name, list] : lists_) out.push_back(name);
  return out;
}

}  // namespace aqua
