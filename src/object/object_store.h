#ifndef AQUA_OBJECT_OBJECT_STORE_H_
#define AQUA_OBJECT_OBJECT_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "object/object.h"
#include "object/schema.h"
#include "object/store_txn.h"
#include "object/store_version.h"
#include "object/store_view.h"

namespace aqua {

/// An attribute assignment used when creating objects by name.
struct AttrValue {
  std::string name;
  Value value;
};

/// The versioning levels of an `ObjectStore` (obs gauges, `\snapshot`).
struct StoreLevels {
  /// Epoch of the head version; bumped on the first mutation after each
  /// snapshot, so one batch commit is one epoch.
  uint64_t epoch = 0;
  /// Number of distinct `StoreVersion`s currently alive (head cache
  /// included).
  size_t versions_live = 0;
  /// Total chunks/extents cloned because a live snapshot pinned them.
  uint64_t cow_copies = 0;
  /// Number of `StoreView`s (and other version handles) held outside the
  /// store across all live versions.
  size_t snapshot_pins = 0;
  /// Approximate bytes of superseded data kept alive only because a live
  /// snapshot still references it. Costs O(live versions + superseded
  /// chunks/extents still pinned), independent of the store's size.
  size_t retained_bytes = 0;
};

/// Type-checks `*value` against `def` (int widens to double, null passes).
/// Shared by the head write path and `DeltaTxn`'s eager validation, so a
/// delta that validated cleanly cannot fail at commit time.
Status CheckAttrValue(const AttrDef& def, Value* value);

/// The in-memory object base: schema catalog, versioned object heap, and
/// per-type extents.
///
/// The heap is *versioned*: `Snapshot()` freezes the current state into an
/// immutable `StoreVersion` that readers hold through a `StoreView` and
/// traverse lock-free, while head mutations copy-on-write any chunk or
/// extent a live snapshot still references and stamp a new epoch. Versions
/// are reclaimed by refcount: dropping the last `StoreView` over an epoch
/// frees whatever chunks the head has since superseded.
///
/// Objects live in fixed-capacity chunks (store_version.h), so `Object*`
/// handles returned by `Get`/`GetMutable` stay valid while `Create` grows
/// the store — the historical single-vector heap invalidated them on
/// growth.
///
/// Thread contract: head mutators and `Snapshot` serialize on an internal
/// mutex; any number of threads may read concurrently through snapshots.
/// Direct head reads (`Get`/`GetAttr`/...) also take the mutex so a
/// concurrent reader/writer mix is race-free either way — hot paths should
/// read through a `StoreView`.
class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// The schema is setup-time state: register types before running
  /// concurrent queries (snapshots reference it by pointer).
  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  /// Creates an object with positional attribute values (must match the
  /// type's attribute count; values are type-checked, int widens to double).
  Result<Oid> Create(TypeId type, std::vector<Value> attrs)
      AQUA_EXCLUDES(mu_);

  /// Creates an object giving values by attribute name; unspecified
  /// attributes are null.
  Result<Oid> Create(const std::string& type_name, std::vector<AttrValue> attrs)
      AQUA_EXCLUDES(mu_);

  /// Resolves an oid in the head version. The pointer survives later
  /// `Create` calls; a later in-place write may copy-on-write the chunk, in
  /// which case the pointer keeps showing the pre-write state (like a
  /// snapshot would).
  Result<const Object*> Get(Oid oid) const AQUA_EXCLUDES(mu_);

  /// Mutable handle into the head version. The addressed chunk is
  /// un-shared first, so writes through the pointer never leak into a live
  /// snapshot. Single-writer contract: do not interleave with commits from
  /// other threads while holding the pointer.
  Result<Object*> GetMutable(Oid oid) AQUA_EXCLUDES(mu_);

  /// True when `oid` names a live object.
  bool Contains(Oid oid) const AQUA_EXCLUDES(mu_);

  /// Reads one attribute by name.
  Result<Value> GetAttr(Oid oid, const std::string& attr) const
      AQUA_EXCLUDES(mu_);

  /// Writes one attribute by name (type-checked).
  Status SetAttr(Oid oid, const std::string& attr, Value value)
      AQUA_EXCLUDES(mu_);

  /// All objects of the given type, in creation order. The extent is
  /// version-owned: holding the returned reference pins the oid list, and
  /// later `Create`s copy-on-write instead of growing it in place.
  Result<ExtentRef> Extent(TypeId type) const AQUA_EXCLUDES(mu_);
  Result<ExtentRef> Extent(const std::string& type_name) const
      AQUA_EXCLUDES(mu_);

  size_t num_objects() const AQUA_EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Versioning

  /// Freezes the current head into an immutable version and returns a view
  /// over it. Repeated snapshots of an unchanged head share one
  /// `StoreVersion` (cached), so snapshotting per-query is cheap.
  StoreView Snapshot() const AQUA_EXCLUDES(mu_);

  /// Atomically applies per-item write deltas in item order, under a single
  /// epoch bump. Created objects receive final oids in fold order — exactly
  /// the oids a serial left-to-right evaluation would have allocated — and
  /// provisional refs inside attribute values are rewritten. Returns, per
  /// delta, the final oid of each provisional creation (index k holds the
  /// final oid of provisional oid k).
  Result<std::vector<std::vector<Oid>>> CommitBatch(
      std::vector<ItemDelta> deltas) AQUA_EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Introspection (obs gauges, \snapshot shell command)

  /// All five levels under one lock (the executor epilogue's gauges).
  StoreLevels Levels() const AQUA_EXCLUDES(mu_);

  // Single-level accessors, each one lock.
  uint64_t epoch() const AQUA_EXCLUDES(mu_);
  size_t versions_live() const AQUA_EXCLUDES(mu_);
  uint64_t cow_copies() const AQUA_EXCLUDES(mu_);
  size_t snapshot_pins() const AQUA_EXCLUDES(mu_);
  size_t retained_bytes() const AQUA_EXCLUDES(mu_);

 private:
  // Pre-mutation hook: stamps a new epoch if the current one has been
  // handed out, and drops the cached head version so its pins lapse.
  void BeginMutation() AQUA_REQUIRES(mu_);

  // Chunk holding `index` (0-based), un-shared for writing (clones the
  // chunk first when a snapshot still references it).
  StoreChunk* WritableChunk(size_t index) AQUA_REQUIRES(mu_);

  Result<Oid> CreateLocked(TypeId type, std::vector<Value> attrs)
      AQUA_REQUIRES(mu_);
  // Append path shared by Create and CommitBatch: attrs already validated.
  Oid AppendValidated(TypeId type, std::vector<Value> attrs)
      AQUA_REQUIRES(mu_);
  Status SetAttrLocked(Oid oid, size_t attr_index, Value value)
      AQUA_REQUIRES(mu_);
  Result<const Object*> GetLocked(Oid oid) const AQUA_REQUIRES(mu_);
  std::shared_ptr<const StoreVersion> SnapshotLocked() const
      AQUA_REQUIRES(mu_);
  // Records in the ledger `bytes` of head data, in the head since epoch
  // `since`, that a clone is about to replace.
  void SupersedeLocked(uint64_t since, size_t bytes) AQUA_REQUIRES(mu_);
  // Drops dead versions from `retained_` and ledger entries no live
  // version references, and returns the levels.
  StoreLevels PruneLocked() const AQUA_REQUIRES(mu_);

  Schema schema_;

  mutable Mutex mu_;
  uint64_t epoch_ AQUA_GUARDED_BY(mu_) = 1;
  uint64_t num_objects_ AQUA_GUARDED_BY(mu_) = 0;
  std::vector<std::shared_ptr<StoreChunk>> chunks_ AQUA_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<std::vector<Oid>>> extents_
      AQUA_GUARDED_BY(mu_);  // indexed by TypeId
  // Epoch in which each head chunk/extent entered the head (its creation
  // or clone); parallel to `chunks_` and `extents_`.
  std::vector<uint64_t> chunk_since_ AQUA_GUARDED_BY(mu_);
  std::vector<uint64_t> extent_since_ AQUA_GUARDED_BY(mu_);
  uint64_t cow_copies_ AQUA_GUARDED_BY(mu_) = 0;
  // Cached version of the unchanged head; also what keeps "the snapshot
  // you just took" alive between queries.
  mutable std::shared_ptr<const StoreVersion> head_version_
      AQUA_GUARDED_BY(mu_);
  // Every version ever handed out, weakly and in epoch order: reclamation
  // is automatic (the last StoreView drop frees the version), this list
  // only observes it. A version is snapshotted after every mutation of its
  // epoch, and the next mutation opens a new epoch, so the version of
  // epoch e holds exactly the data the head had at the end of epoch e.
  struct RetainedVersion {
    uint64_t epoch;
    std::weak_ptr<const StoreVersion> version;
  };
  mutable std::vector<RetainedVersion> retained_ AQUA_GUARDED_BY(mu_);
  // The retained-bytes ledger: one entry per chunk/extent the head
  // replaced by a clone. Data the head had at the end of epochs
  // [since, until) is referenced by exactly the versions of those
  // epochs, so an entry is retained while one of them lives and is
  // dropped for good once none does (later versions have later epochs).
  struct Superseded {
    uint64_t since;
    uint64_t until;
    size_t bytes;
  };
  mutable std::vector<Superseded> superseded_ AQUA_GUARDED_BY(mu_);
};

}  // namespace aqua

#endif  // AQUA_OBJECT_OBJECT_STORE_H_
