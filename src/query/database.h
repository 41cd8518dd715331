#ifndef AQUA_QUERY_DATABASE_H_
#define AQUA_QUERY_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "object/object_store.h"
#include "bulk/list.h"
#include "bulk/tree.h"
#include "index/index_manager.h"

namespace aqua {

/// A small OODB: one object store, named list/tree collections, and an
/// index catalog. Queries (plans) execute against a `Database`.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  IndexManager& indexes() { return indexes_; }
  const IndexManager& indexes() const { return indexes_; }

  /// Registers a named tree collection (fails on duplicate names across
  /// both kinds).
  Status RegisterTree(const std::string& name, Tree tree);
  Status RegisterList(const std::string& name, List list);

  bool HasTree(const std::string& name) const { return trees_.count(name); }
  bool HasList(const std::string& name) const { return lists_.count(name); }

  Result<const Tree*> GetTree(const std::string& name) const;
  Result<const List*> GetList(const std::string& name) const;

  /// The registered collection itself, shared rather than copied: this is
  /// what a scan returns. Registered collections are never mutated, so the
  /// handle may be read from any thread, and it keeps the collection alive
  /// on its own (results stay valid after the executor, or the database,
  /// is gone).
  Result<std::shared_ptr<const Tree>> ShareTree(const std::string& name) const;
  Result<std::shared_ptr<const List>> ShareList(const std::string& name) const;

  /// Builds an attribute index over a registered collection (dispatches on
  /// the collection kind).
  Status CreateIndex(const std::string& collection, const std::string& attr);

  std::vector<std::string> CollectionNames() const;
  std::vector<std::string> TreeNames() const;
  std::vector<std::string> ListNames() const;

 private:
  ObjectStore store_;
  IndexManager indexes_;
  // Immutable once registered; scans share them (see ShareTree).
  std::map<std::string, std::shared_ptr<const Tree>> trees_;
  std::map<std::string, std::shared_ptr<const List>> lists_;
};

}  // namespace aqua

#endif  // AQUA_QUERY_DATABASE_H_
