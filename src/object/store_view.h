#ifndef AQUA_OBJECT_STORE_VIEW_H_
#define AQUA_OBJECT_STORE_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/value.h"
#include "object/store_version.h"

namespace aqua {

class ObjectStore;

/// A snapshot handle over one immutable `StoreVersion` — the read surface
/// threaded through the bulk/pattern/index/exec layers so a query evaluates
/// lock-free against the epoch it opened, regardless of concurrent commits.
///
/// Copying a view is one shared_ptr copy; the copy pins the same version.
/// The conversion from `const ObjectStore&` is deliberately implicit: every
/// read API that used to take the store now takes a view, and existing call
/// sites keep compiling by snapshotting at the boundary (cheap — the store
/// caches the head version, so an unchanged store hands out the same
/// `StoreVersion` again).
class StoreView {
 public:
  /// An empty view: no version, every lookup fails. Used as the
  /// default-constructed state before an executor installs a snapshot.
  StoreView() = default;

  // NOLINTNEXTLINE(google-explicit-constructor): snapshotting conversion.
  StoreView(const ObjectStore& store);
  explicit StoreView(std::shared_ptr<const StoreVersion> version)
      : version_(std::move(version)) {}

  bool valid() const { return version_ != nullptr; }
  uint64_t epoch() const { return version_ != nullptr ? version_->epoch : 0; }
  size_t num_objects() const {
    return version_ != nullptr ? version_->num_objects : 0;
  }

  const Schema& schema() const { return *version_->schema; }

  /// Resolves an oid against this version. The pointer is stable for the
  /// view's lifetime: chunks referenced by a version are immutable.
  Result<const Object*> Get(Oid oid) const;

  /// True when `oid` names an object that existed at this epoch.
  bool Contains(Oid oid) const {
    return version_ != nullptr && !oid.IsNull() &&
           oid.value <= version_->num_objects;
  }

  /// Reads one attribute by name, as of this epoch.
  Result<Value> GetAttr(Oid oid, const std::string& attr) const;

  /// Reads one attribute in place, as of this epoch: null when `oid` names
  /// no object here or its type lacks the attribute (exactly the cases in
  /// which `GetAttr` fails). The pointer is stable for the view's lifetime.
  /// This is predicate evaluation's hot path: no name hashing, no `Value`
  /// copy, no status.
  const Value* FindAttr(Oid oid, AttrId attr) const {
    if (!Contains(oid)) return nullptr;
    size_t index = oid.value - 1;
    return version_->chunks[index >> kStoreChunkShift]
        ->objects[index & kStoreChunkMask]
        .FindAttr(*version_->schema, attr);
  }

  /// All objects of the given type at this epoch, in creation order. The
  /// returned extent is version-owned: holding it keeps the oid list alive
  /// and stable even across later commits.
  Result<ExtentRef> Extent(TypeId type) const;
  Result<ExtentRef> Extent(const std::string& type_name) const;

  const std::shared_ptr<const StoreVersion>& version() const {
    return version_;
  }

 private:
  std::shared_ptr<const StoreVersion> version_;
};

}  // namespace aqua

#endif  // AQUA_OBJECT_STORE_VIEW_H_
