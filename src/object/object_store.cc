#include "object/object_store.h"

#include <atomic>
#include <unordered_set>

namespace aqua {

Status CheckAttrValue(const AttrDef& def, Value* value) {
  if (value->is_null()) return Status::OK();
  if (def.type == ValueType::kDouble && value->is_int()) {
    *value = Value::Double(static_cast<double>(value->int_value()));
    return Status::OK();
  }
  if (value->type() != def.type) {
    return Status::TypeError("attribute '" + def.name + "' expects " +
                             ValueTypeToString(def.type) + ", got " +
                             ValueTypeToString(value->type()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Internal machinery (callers hold mu_)

namespace {

/// True when `ref` holds the only reference to its pointee, which may then
/// be written in place. References are only added under mu_, so a count of
/// 1 stays 1. But `use_count()` is a relaxed load: reading 1 does not by
/// itself order a snapshot reader's last reads before our write. The
/// acquire fence after it does, on any standard library: a pin's release
/// decrements the count with release ordering, and a relaxed load that
/// reads the result, followed by an acquire fence, synchronizes with it.
/// ThreadSanitizer does not model fences, so the pointer is also copied:
/// with libstdc++ the copy's increment is an acq_rel read-modify-write,
/// which the sanitizer sees as that same synchronization (libc++
/// increments relaxed, so there only the fence orders).
template <typename T>
bool SoleReference(const std::shared_ptr<T>& ref) {
  if (ref.use_count() > 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  [[maybe_unused]] std::shared_ptr<T> acquire = ref;
  return true;
}

}  // namespace

void ObjectStore::BeginMutation() {
  // The head version doubles as the "has this epoch been observed" flag:
  // it exists exactly when someone may hold the current state, so the
  // first mutation after a snapshot opens a new epoch and detaches the
  // cache (whose chunks then stay alive only through external pins).
  if (head_version_ != nullptr) {
    ++epoch_;
    head_version_.reset();
  }
}

StoreChunk* ObjectStore::WritableChunk(size_t index) {
  std::shared_ptr<StoreChunk>& slot = chunks_[index];
  // Shared means a live version still references this chunk. A racing
  // reader dropping its pin at worst makes us clone once more than needed.
  if (!SoleReference(slot)) {
    auto clone = std::make_shared<StoreChunk>();
    clone->objects.insert(clone->objects.end(), slot->objects.begin(),
                          slot->objects.end());
    slot = std::move(clone);
    ++cow_copies_;
  }
  return slot.get();
}

Oid ObjectStore::AppendValidated(TypeId type, std::vector<Value> attrs) {
  size_t index = num_objects_;
  Oid oid(num_objects_ + 1);
  size_t chunk_index = index >> kStoreChunkShift;
  if (chunk_index == chunks_.size()) {
    chunks_.push_back(std::make_shared<StoreChunk>());
  }
  // Appends also copy-on-write: pushing into a snapshot-shared chunk would
  // race with readers on the vector size.
  WritableChunk(chunk_index)
      ->objects.emplace_back(oid, type, std::move(attrs));
  ++num_objects_;

  if (extents_.size() <= type) extents_.resize(type + 1);
  std::shared_ptr<std::vector<Oid>>& extent = extents_[type];
  if (extent == nullptr) {
    extent = std::make_shared<std::vector<Oid>>();
  } else if (!SoleReference(extent)) {
    extent = std::make_shared<std::vector<Oid>>(*extent);
    ++cow_copies_;
  }
  extent->push_back(oid);
  return oid;
}

Result<Oid> ObjectStore::CreateLocked(TypeId type, std::vector<Value> attrs) {
  AQUA_ASSIGN_OR_RETURN(const TypeDef* def, schema_.GetType(type));
  if (attrs.size() != def->num_attrs()) {
    return Status::InvalidArgument(
        "type '" + def->name() + "' expects " +
        std::to_string(def->num_attrs()) + " attributes, got " +
        std::to_string(attrs.size()));
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    AQUA_RETURN_IF_ERROR(CheckAttrValue(def->attrs()[i], &attrs[i]));
  }
  BeginMutation();
  return AppendValidated(type, std::move(attrs));
}

Result<const Object*> ObjectStore::GetLocked(Oid oid) const {
  if (oid.IsNull() || oid.value > num_objects_) {
    return Status::NotFound("no object with oid " + std::to_string(oid.value));
  }
  size_t index = oid.value - 1;
  return &chunks_[index >> kStoreChunkShift]
              ->objects[index & kStoreChunkMask];
}

Status ObjectStore::SetAttrLocked(Oid oid, size_t attr_index, Value value) {
  if (oid.IsNull() || oid.value > num_objects_) {
    return Status::NotFound("no object with oid " + std::to_string(oid.value));
  }
  size_t index = oid.value - 1;
  StoreChunk* chunk = WritableChunk(index >> kStoreChunkShift);
  chunk->objects[index & kStoreChunkMask].set_attr_at(attr_index,
                                                      std::move(value));
  return Status::OK();
}

std::shared_ptr<const StoreVersion> ObjectStore::SnapshotLocked() const {
  if (head_version_ == nullptr) {
    auto version = std::make_shared<StoreVersion>();
    version->epoch = epoch_;
    version->num_objects = num_objects_;
    version->schema = &schema_;
    version->chunks.assign(chunks_.begin(), chunks_.end());
    version->extents.assign(extents_.begin(), extents_.end());
    head_version_ = version;
    retained_.push_back(version);
    PruneRetainedLocked();
  }
  return head_version_;
}

void ObjectStore::PruneRetainedLocked() const {
  size_t kept = 0;
  for (size_t i = 0; i < retained_.size(); ++i) {
    if (retained_[i].expired()) continue;
    // Guard the self-assignment: moving a weak_ptr onto itself empties it.
    if (kept != i) retained_[kept] = std::move(retained_[i]);
    ++kept;
  }
  retained_.resize(kept);
}

// ---------------------------------------------------------------------------
// Public surface

Result<Oid> ObjectStore::Create(TypeId type, std::vector<Value> attrs) {
  MutexLock lock(mu_);
  return CreateLocked(type, std::move(attrs));
}

Result<Oid> ObjectStore::Create(const std::string& type_name,
                                std::vector<AttrValue> attrs) {
  AQUA_ASSIGN_OR_RETURN(TypeId type, schema_.TypeIdOf(type_name));
  AQUA_ASSIGN_OR_RETURN(const TypeDef* def, schema_.GetType(type));
  std::vector<Value> positional(def->num_attrs());
  for (auto& av : attrs) {
    AQUA_ASSIGN_OR_RETURN(size_t idx, def->AttrIndex(av.name));
    positional[idx] = std::move(av.value);
  }
  return Create(type, std::move(positional));
}

Result<const Object*> ObjectStore::Get(Oid oid) const {
  MutexLock lock(mu_);
  return GetLocked(oid);
}

Result<Object*> ObjectStore::GetMutable(Oid oid) {
  MutexLock lock(mu_);
  if (oid.IsNull() || oid.value > num_objects_) {
    return Status::NotFound("no object with oid " + std::to_string(oid.value));
  }
  BeginMutation();
  size_t index = oid.value - 1;
  StoreChunk* chunk = WritableChunk(index >> kStoreChunkShift);
  return &chunk->objects[index & kStoreChunkMask];
}

bool ObjectStore::Contains(Oid oid) const {
  MutexLock lock(mu_);
  return !oid.IsNull() && oid.value <= num_objects_;
}

Result<Value> ObjectStore::GetAttr(Oid oid, const std::string& attr) const {
  MutexLock lock(mu_);
  AQUA_ASSIGN_OR_RETURN(const Object* obj, GetLocked(oid));
  AQUA_ASSIGN_OR_RETURN(const TypeDef* def, schema_.GetType(obj->type()));
  AQUA_ASSIGN_OR_RETURN(size_t idx, def->AttrIndex(attr));
  return obj->attr_at(idx);
}

Status ObjectStore::SetAttr(Oid oid, const std::string& attr, Value value) {
  MutexLock lock(mu_);
  AQUA_ASSIGN_OR_RETURN(const Object* obj, GetLocked(oid));
  AQUA_ASSIGN_OR_RETURN(const TypeDef* def, schema_.GetType(obj->type()));
  AQUA_ASSIGN_OR_RETURN(size_t idx, def->AttrIndex(attr));
  AQUA_RETURN_IF_ERROR(CheckAttrValue(def->attrs()[idx], &value));
  BeginMutation();
  return SetAttrLocked(oid, idx, std::move(value));
}

Result<ExtentRef> ObjectStore::Extent(TypeId type) const {
  AQUA_RETURN_IF_ERROR(schema_.GetType(type).status());
  MutexLock lock(mu_);
  static const ExtentRef kEmpty = std::make_shared<const std::vector<Oid>>();
  if (type >= extents_.size() || extents_[type] == nullptr) return kEmpty;
  // The converting copy shares the control block: a held extent raises the
  // refcount, so later appends clone instead of growing it under the
  // holder.
  return ExtentRef(extents_[type]);
}

Result<ExtentRef> ObjectStore::Extent(const std::string& type_name) const {
  AQUA_ASSIGN_OR_RETURN(TypeId type, schema_.TypeIdOf(type_name));
  return Extent(type);
}

size_t ObjectStore::num_objects() const {
  MutexLock lock(mu_);
  return num_objects_;
}

StoreView ObjectStore::Snapshot() const {
  MutexLock lock(mu_);
  return StoreView(SnapshotLocked());
}

namespace {

// Rewrites a provisional ref to the final oid its creation received.
Status RemapValue(const std::vector<Oid>& finals, Value* value) {
  if (!value->is_ref() || !IsProvisionalOid(value->ref_value())) {
    return Status::OK();
  }
  size_t index = ProvisionalOidIndex(value->ref_value());
  if (index >= finals.size()) {
    return Status::Internal("delta references provisional oid " +
                            std::to_string(index) + " never created");
  }
  *value = Value::Ref(finals[index]);
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<Oid>>> ObjectStore::CommitBatch(
    std::vector<ItemDelta> deltas) {
  MutexLock lock(mu_);
  BeginMutation();
  std::vector<std::vector<Oid>> finals(deltas.size());
  for (size_t d = 0; d < deltas.size(); ++d) {
    ItemDelta& delta = deltas[d];
    std::vector<Oid>& map = finals[d];
    map.reserve(delta.created.size());
    // Creations fold in item order, so final oids replay the sequence a
    // serial left-to-right evaluation would have allocated.
    for (const Object& obj : delta.created) {
      std::vector<Value> attrs = obj.attrs();
      for (Value& v : attrs) {
        AQUA_RETURN_IF_ERROR(RemapValue(map, &v));
      }
      map.push_back(AppendValidated(obj.type(), std::move(attrs)));
    }
    for (AttrWrite& write : delta.writes) {
      AQUA_RETURN_IF_ERROR(RemapValue(map, &write.value));
      AQUA_RETURN_IF_ERROR(
          SetAttrLocked(write.oid, write.attr_index, std::move(write.value)));
    }
  }
  return finals;
}

// ---------------------------------------------------------------------------
// Introspection

uint64_t ObjectStore::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

size_t ObjectStore::versions_live() const {
  MutexLock lock(mu_);
  PruneRetainedLocked();
  return retained_.size();
}

size_t ObjectStore::snapshot_pins() const {
  MutexLock lock(mu_);
  size_t pins = 0;
  for (const std::weak_ptr<const StoreVersion>& weak : retained_) {
    std::shared_ptr<const StoreVersion> version = weak.lock();
    if (version == nullptr) continue;
    long count = version.use_count() - 1;  // minus this local handle
    if (version == head_version_) --count;  // minus the store's own cache
    if (count > 0) pins += static_cast<size_t>(count);
  }
  return pins;
}

uint64_t ObjectStore::cow_copies() const {
  MutexLock lock(mu_);
  return cow_copies_;
}

namespace {

size_t ApproxChunkBytes(const StoreChunk& chunk) {
  size_t bytes = sizeof(StoreChunk) + chunk.objects.capacity() * sizeof(Object);
  for (const Object& obj : chunk.objects) {
    bytes += obj.attrs().capacity() * sizeof(Value);
  }
  return bytes;
}

}  // namespace

size_t ObjectStore::retained_bytes() const {
  MutexLock lock(mu_);
  // Superseded data only: chunks/extents referenced by a live version that
  // the head no longer uses (data the head still shares costs nothing
  // extra to retain).
  std::unordered_set<const void*> head;
  for (const auto& chunk : chunks_) head.insert(chunk.get());
  for (const auto& extent : extents_) head.insert(extent.get());
  std::unordered_set<const void*> counted;
  size_t bytes = 0;
  for (const std::weak_ptr<const StoreVersion>& weak : retained_) {
    std::shared_ptr<const StoreVersion> version = weak.lock();
    if (version == nullptr) continue;
    for (const auto& chunk : version->chunks) {
      if (head.count(chunk.get()) != 0) continue;
      if (!counted.insert(chunk.get()).second) continue;
      bytes += ApproxChunkBytes(*chunk);
    }
    for (const auto& extent : version->extents) {
      if (extent == nullptr || head.count(extent.get()) != 0) continue;
      if (!counted.insert(extent.get()).second) continue;
      bytes += sizeof(std::vector<Oid>) + extent->capacity() * sizeof(Oid);
    }
  }
  return bytes;
}

}  // namespace aqua
