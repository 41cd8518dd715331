// Versioned-store semantics: snapshot isolation, epoch discipline,
// copy-on-write granularity, pointer/extent stability across growth, and
// the delta-commit path (`DeltaTxn` + `CommitBatch`) that backs the
// morsel-parallel mutating apply.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "object/object_store.h"
#include "object/store_txn.h"
#include "object/store_version.h"
#include "object/store_view.h"

namespace aqua {
namespace {

class StoreVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = store_.schema().RegisterType(
        "Person", {{"name", ValueType::kString, true},
                   {"age", ValueType::kInt, true},
                   {"boss", ValueType::kRef, true}});
    ASSERT_TRUE(id.ok());
    person_ = *id;
  }

  Oid MustCreate(const std::string& name, int64_t age) {
    auto oid = store_.Create(
        person_, {Value::String(name), Value::Int(age), Value::Null()});
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return oid.ok() ? *oid : Oid();
  }

  ObjectStore store_;
  TypeId person_ = kInvalidType;
};

TEST_F(StoreVersionTest, SnapshotDoesNotSeeLaterCreates) {
  Oid ann = MustCreate("Ann", 30);
  StoreView before = store_.Snapshot();
  Oid bo = MustCreate("Bo", 40);

  EXPECT_EQ(before.num_objects(), 1u);
  EXPECT_TRUE(before.Contains(ann));
  EXPECT_FALSE(before.Contains(bo));
  EXPECT_FALSE(before.Get(bo).ok());

  StoreView after = store_.Snapshot();
  EXPECT_EQ(after.num_objects(), 2u);
  auto name = after.GetAttr(bo, "name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->string_value(), "Bo");
}

TEST_F(StoreVersionTest, SnapshotKeepsPreWriteValueAfterSetAttr) {
  Oid ann = MustCreate("Ann", 30);
  StoreView before = store_.Snapshot();
  uint64_t cow_before = store_.cow_copies();
  ASSERT_TRUE(store_.SetAttr(ann, "age", Value::Int(31)).ok());

  // The write copy-on-wrote the chunk the snapshot pins.
  EXPECT_GT(store_.cow_copies(), cow_before);
  auto old_age = before.GetAttr(ann, "age");
  ASSERT_TRUE(old_age.ok());
  EXPECT_EQ(old_age->int_value(), 30);
  auto new_age = store_.GetAttr(ann, "age");
  ASSERT_TRUE(new_age.ok());
  EXPECT_EQ(new_age->int_value(), 31);
}

TEST_F(StoreVersionTest, UnchangedHeadSharesOneVersion) {
  MustCreate("Ann", 30);
  StoreView a = store_.Snapshot();
  StoreView b = store_.Snapshot();
  // Repeated snapshots of an unchanged head are free: same StoreVersion.
  EXPECT_EQ(a.version().get(), b.version().get());
  EXPECT_EQ(store_.versions_live(), 1u);
}

TEST_F(StoreVersionTest, EpochBumpsOncePerMutationBurst) {
  EXPECT_EQ(store_.epoch(), 1u);
  // No snapshot handed out yet: mutations stay within epoch 1.
  MustCreate("Ann", 30);
  MustCreate("Bo", 40);
  EXPECT_EQ(store_.epoch(), 1u);

  StoreView v1 = store_.Snapshot();
  EXPECT_EQ(v1.epoch(), 1u);
  // First mutation after the snapshot opens a new epoch; the rest of the
  // burst stays inside it.
  MustCreate("Cy", 50);
  EXPECT_EQ(store_.epoch(), 2u);
  MustCreate("Di", 60);
  ASSERT_TRUE(store_.SetAttr(Oid(1), "age", Value::Int(31)).ok());
  EXPECT_EQ(store_.epoch(), 2u);

  StoreView v2 = store_.Snapshot();
  EXPECT_EQ(v2.epoch(), 2u);
  MustCreate("Ed", 70);
  EXPECT_EQ(store_.epoch(), 3u);
}

TEST_F(StoreVersionTest, CommitBatchIsOneEpoch) {
  StoreView pinned = store_.Snapshot();
  std::vector<ItemDelta> deltas(3);
  for (size_t i = 0; i < deltas.size(); ++i) {
    deltas[i].created.emplace_back(
        MakeProvisionalOid(0), person_,
        std::vector<Value>{Value::String("p"), Value::Int(static_cast<int64_t>(i)),
                           Value::Null()});
  }
  auto finals = store_.CommitBatch(std::move(deltas));
  ASSERT_TRUE(finals.ok());
  EXPECT_EQ(store_.epoch(), 2u);
  EXPECT_EQ(store_.num_objects(), 3u);
}

// Regression for the historical single-vector heap: `Get` pointers must
// survive `Create`-driven growth across chunk boundaries.
TEST_F(StoreVersionTest, GetPointerStableAcrossChunkGrowth) {
  Oid first = MustCreate("First", 1);
  auto held = store_.Get(first);
  ASSERT_TRUE(held.ok());
  const Object* p = *held;

  // Grow well past several chunk boundaries while the read is held.
  for (size_t i = 0; i < 3 * kStoreChunkSize + 5; ++i) {
    MustCreate("Filler", static_cast<int64_t>(i));
  }
  EXPECT_EQ(p->oid(), first);
  EXPECT_EQ(p->attr_at(0).string_value(), "First");
  EXPECT_EQ(p->attr_at(1).int_value(), 1);

  // Same for a pointer taken at the tail end of a chunk.
  Oid near_edge(kStoreChunkSize);
  auto edge = store_.Get(near_edge);
  ASSERT_TRUE(edge.ok());
  const Object* q = *edge;
  for (size_t i = 0; i < kStoreChunkSize; ++i) {
    MustCreate("More", static_cast<int64_t>(i));
  }
  EXPECT_EQ(q->oid(), near_edge);
  EXPECT_EQ(q->attr_at(0).string_value(), "Filler");
}

TEST_F(StoreVersionTest, GetMutableDoesNotLeakIntoSnapshot) {
  Oid ann = MustCreate("Ann", 30);
  StoreView before = store_.Snapshot();
  auto obj = store_.GetMutable(ann);
  ASSERT_TRUE(obj.ok());
  (*obj)->set_attr_at(1, Value::Int(99));

  auto old_age = before.GetAttr(ann, "age");
  ASSERT_TRUE(old_age.ok());
  EXPECT_EQ(old_age->int_value(), 30);
  auto new_age = store_.GetAttr(ann, "age");
  ASSERT_TRUE(new_age.ok());
  EXPECT_EQ(new_age->int_value(), 99);
}

TEST_F(StoreVersionTest, ExtentRefStableAcrossLaterCreates) {
  MustCreate("Ann", 30);
  MustCreate("Bo", 40);
  auto held = store_.Extent(person_);
  ASSERT_TRUE(held.ok());
  ExtentRef extent = *held;
  ASSERT_EQ((*extent).size(), 2u);

  for (int i = 0; i < 10; ++i) MustCreate("Filler", i);
  // The held extent still shows the pre-growth oid list...
  EXPECT_EQ((*extent).size(), 2u);
  EXPECT_EQ((*extent)[0], Oid(1));
  EXPECT_EQ((*extent)[1], Oid(2));
  // ...while a fresh lookup sees everything.
  auto fresh = store_.Extent(person_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((**fresh).size(), 12u);
}

TEST_F(StoreVersionTest, SnapshotExtentPinsOidListOfItsEpoch) {
  MustCreate("Ann", 30);
  StoreView view = store_.Snapshot();
  MustCreate("Bo", 40);
  auto extent = view.Extent("Person");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ((**extent).size(), 1u);
}

TEST_F(StoreVersionTest, VersionAccountingAndReclamation) {
  MustCreate("Ann", 30);
  EXPECT_EQ(store_.versions_live(), 0u);
  EXPECT_EQ(store_.snapshot_pins(), 0u);

  {
    StoreView pinned = store_.Snapshot();
    EXPECT_EQ(store_.versions_live(), 1u);
    EXPECT_EQ(store_.snapshot_pins(), 1u);

    // Superseding the pinned chunk starts retaining bytes for the old view.
    ASSERT_TRUE(store_.SetAttr(Oid(1), "age", Value::Int(31)).ok());
    EXPECT_GT(store_.retained_bytes(), 0u);
    StoreView head = store_.Snapshot();
    EXPECT_EQ(store_.versions_live(), 2u);
    EXPECT_EQ(store_.snapshot_pins(), 2u);
  }
  // Dropping the views reclaims the superseded version; the head cache may
  // keep the current one alive, but it retains nothing beyond the head.
  EXPECT_LE(store_.versions_live(), 1u);
  EXPECT_EQ(store_.snapshot_pins(), 0u);
  EXPECT_EQ(store_.retained_bytes(), 0u);
}

// The full walk `retained_bytes()` used to make, kept as the reference:
// the bytes of every chunk and extent a held view references and the head
// does not, each counted once. It reads the head through raw object
// pointers and transient extent handles, so it pins nothing and leaves
// the store's epochs as they were.
size_t FullWalkRetainedBytes(const ObjectStore& store,
                             const std::vector<TypeId>& types,
                             const std::vector<StoreView>& views) {
  std::set<const void*> head;
  for (uint64_t first = 1; first <= store.num_objects();
       first += kStoreChunkSize) {
    auto obj = store.Get(Oid(first));  // a chunk's first object names it
    EXPECT_TRUE(obj.ok());
    head.insert(*obj);
  }
  std::vector<ExtentRef> head_extents;
  for (TypeId type : types) {
    auto extent = store.Extent(type);
    EXPECT_TRUE(extent.ok());
    head_extents.push_back(*extent);
    head.insert(extent->get());
  }
  std::set<const void*> counted;
  size_t bytes = 0;
  for (const StoreView& view : views) {
    for (const auto& chunk : view.version()->chunks) {
      if (head.count(chunk->objects.data()) != 0) continue;
      if (!counted.insert(chunk.get()).second) continue;
      bytes += sizeof(StoreChunk) + chunk->objects.capacity() * sizeof(Object);
      for (const Object& obj : chunk->objects) {
        bytes += obj.attrs().capacity() * sizeof(Value);
      }
    }
    for (const ExtentRef& extent : view.version()->extents) {
      if (extent == nullptr || head.count(extent.get()) != 0) continue;
      if (!counted.insert(extent.get()).second) continue;
      bytes += sizeof(std::vector<Oid>) + extent->capacity() * sizeof(Oid);
    }
  }
  return bytes;
}

// Seeded random writes, delta commits, snapshot pins and pin drops; after
// every step the superseded-data ledger must read exactly what the full
// walk reads. Bare extent handles (from the head or from a dropped view)
// pin an oid list but no version, so neither side counts them.
TEST_F(StoreVersionTest, RetainedBytesMatchesFullWalkUnderRandomSteps) {
  auto tag = store_.schema().RegisterType("Tag",
                                          {{"label", ValueType::kInt, true}});
  ASSERT_TRUE(tag.ok());
  const std::vector<TypeId> types = {person_, *tag};
  for (int i = 0; i < 600; ++i) MustCreate("p", i);  // three chunks

  for (uint64_t seed : {2301u, 2302u, 2303u, 2304u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    auto random_oid = [&] { return Oid(1 + pick(store_.num_objects())); };
    // The int attribute each type has: Person's "age", Tag's "label".
    auto int_attr = [&](Oid oid) -> std::string {
      return (*store_.Get(oid))->type() == person_ ? "age" : "label";
    };
    auto create = [&] {
      if (pick(3) == 0) {
        ASSERT_TRUE(store_.Create(*tag, {Value::Int(7)}).ok());
      } else {
        MustCreate("q", 1);
      }
    };
    auto set_int = [&] {
      Oid oid = random_oid();
      ASSERT_TRUE(store_
                      .SetAttr(oid, int_attr(oid),
                               Value::Int(static_cast<int64_t>(pick(100))))
                      .ok());
    };
    std::vector<StoreView> views;
    std::vector<ExtentRef> extents;
    size_t retaining_steps = 0;
    for (int step = 0; step < 400; ++step) {
      switch (pick(10)) {
        case 0:
        case 1:
          create();
          break;
        case 2:
          set_int();
          break;
        case 3: {  // a write through a head handle
          auto obj = store_.GetMutable(random_oid());
          ASSERT_TRUE(obj.ok());
          (*obj)->set_attr_at((*obj)->type() == person_ ? 1 : 0,
                              Value::Int(-1));
          break;
        }
        case 4: {  // a delta commit against a fresh snapshot
          DeltaTxn txn(store_.Snapshot());
          for (size_t k = pick(3); k > 0; --k) {
            ASSERT_TRUE(txn.Create(person_, {Value::String("d"), Value::Int(2),
                                             Value::Null()})
                            .ok());
          }
          for (size_t k = 1 + pick(3); k > 0; --k) {
            Oid oid = random_oid();
            ASSERT_TRUE(txn.SetAttr(oid, int_attr(oid), Value::Int(3)).ok());
          }
          std::vector<ItemDelta> deltas;
          deltas.push_back(txn.Take());
          ASSERT_TRUE(store_.CommitBatch(std::move(deltas)).ok());
          break;
        }
        case 5:
        case 6:
          views.push_back(store_.Snapshot());
          break;
        case 7:
          if (!views.empty()) views.erase(views.begin() + pick(views.size()));
          break;
        case 8: {  // a bare extent handle, from the head or a held view
          TypeId type = types[pick(types.size())];
          auto extent = views.empty() || pick(2) == 0
                            ? store_.Extent(type)
                            : views[pick(views.size())].Extent(type);
          ASSERT_TRUE(extent.ok());
          extents.push_back(*extent);
          if (extents.size() > 4) extents.erase(extents.begin());
          break;
        }
        default: {  // several writes in one epoch, grabbing an extent midway
          for (size_t k = 2 + pick(4); k > 0; --k) {
            if (pick(2) == 0) {
              create();
            } else {
              set_int();
            }
            if (k == 2) extents.push_back(*store_.Extent(types[pick(2)]));
          }
          if (extents.size() > 4) extents.erase(extents.begin());
          break;
        }
      }
      size_t expected = FullWalkRetainedBytes(store_, types, views);
      ASSERT_EQ(store_.retained_bytes(), expected) << "step " << step;
      if (expected > 0) ++retaining_steps;
    }
    // The walk saw superseded data on a good share of the steps, so the
    // equality above was not only 0 == 0.
    EXPECT_GT(retaining_steps, 100u);
    views.clear();
    extents.clear();
    EXPECT_EQ(store_.retained_bytes(), 0u);
  }
}

TEST_F(StoreVersionTest, DeltaTxnBuffersWritesWithReadYourWrites) {
  Oid ann = MustCreate("Ann", 30);
  DeltaTxn txn(store_.Snapshot());

  // In-place write: visible inside the txn, invisible to the head.
  ASSERT_TRUE(txn.SetAttr(ann, "age", Value::Int(31)).ok());
  auto inside = txn.GetAttr(ann, "age");
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->int_value(), 31);
  auto outside = store_.GetAttr(ann, "age");
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(outside->int_value(), 30);

  // Creation: provisional oid, readable back through the txn.
  auto bo = txn.Create(person_, {Value::String("Bo"), Value::Int(40),
                                 Value::Ref(ann)});
  ASSERT_TRUE(bo.ok());
  EXPECT_TRUE(IsProvisionalOid(*bo));
  auto created = txn.Get(*bo);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ((*created)->attr_at(0).string_value(), "Bo");
  EXPECT_FALSE(store_.Contains(*bo));

  ItemDelta delta = txn.Take();
  EXPECT_EQ(delta.created.size(), 1u);
  EXPECT_EQ(delta.writes.size(), 1u);
  EXPECT_FALSE(txn.has_effects());
}

TEST_F(StoreVersionTest, DeltaTxnValidatesEagerly) {
  Oid ann = MustCreate("Ann", 30);
  DeltaTxn txn(store_.Snapshot());
  // Same type checks as the head path, so a clean delta cannot fail later.
  EXPECT_FALSE(txn.SetAttr(ann, "age", Value::String("old")).ok());
  EXPECT_FALSE(
      txn.Create(person_, {Value::Int(1), Value::Int(2), Value::Null()}).ok());
  EXPECT_FALSE(txn.has_effects());
}

TEST_F(StoreVersionTest, CommitBatchReplaysSerialOidOrder) {
  Oid ann = MustCreate("Ann", 30);

  // Two items, evaluated as if concurrently against the same snapshot.
  StoreView view = store_.Snapshot();
  DeltaTxn item0(view);
  DeltaTxn item1(view);
  auto p0 = item1.Create(person_, {Value::String("Cy"), Value::Int(50),
                                   Value::Null()});  // item 1 first: order
  auto p1 = item0.Create(person_, {Value::String("Bo"), Value::Int(40),
                                   Value::Null()});  // must not depend on it
  ASSERT_TRUE(p0.ok() && p1.ok());
  ASSERT_TRUE(item0.SetAttr(ann, "boss", Value::Ref(*p1)).ok());

  std::vector<ItemDelta> deltas;
  deltas.push_back(item0.Take());
  deltas.push_back(item1.Take());
  auto finals = store_.CommitBatch(std::move(deltas));
  ASSERT_TRUE(finals.ok());

  // Item order decides final oids: item 0's "Bo" folds before item 1's
  // "Cy", exactly as serial left-to-right evaluation would allocate.
  ASSERT_EQ(finals->size(), 2u);
  ASSERT_EQ((*finals)[0].size(), 1u);
  ASSERT_EQ((*finals)[1].size(), 1u);
  Oid bo = (*finals)[0][0];
  Oid cy = (*finals)[1][0];
  EXPECT_EQ(bo, Oid(2));
  EXPECT_EQ(cy, Oid(3));
  auto bo_name = store_.GetAttr(bo, "name");
  ASSERT_TRUE(bo_name.ok());
  EXPECT_EQ(bo_name->string_value(), "Bo");
  auto cy_name = store_.GetAttr(cy, "name");
  ASSERT_TRUE(cy_name.ok());
  EXPECT_EQ(cy_name->string_value(), "Cy");

  // The provisional ref buffered in item 0's write was rewritten to Bo's
  // final oid.
  auto boss = store_.GetAttr(ann, "boss");
  ASSERT_TRUE(boss.ok());
  ASSERT_TRUE(boss->is_ref());
  EXPECT_EQ(boss->ref_value(), bo);
}

TEST_F(StoreVersionTest, CommitBatchMatchesSerialDirectTxn) {
  // The same per-item program run (a) serially through DirectTxn and
  // (b) buffered through DeltaTxn + CommitBatch must leave two stores in
  // identical states — the delta-merge determinism rule.
  auto program = [this](StoreTxn& txn, int64_t i) {
    auto oid = txn.Create(person_, {Value::String("p"), Value::Int(i),
                                    Value::Null()});
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(txn.SetAttr(Oid(1), "boss", Value::Ref(*oid)).ok());
  };

  ObjectStore serial;
  auto id = serial.schema().RegisterType(
      "Person", {{"name", ValueType::kString, true},
                 {"age", ValueType::kInt, true},
                 {"boss", ValueType::kRef, true}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(serial
                  .Create(person_, {Value::String("Ann"), Value::Int(30),
                                    Value::Null()})
                  .ok());
  MustCreate("Ann", 30);

  DirectTxn direct(&serial);
  for (int64_t i = 0; i < 4; ++i) program(direct, i);

  StoreView view = store_.Snapshot();
  std::vector<ItemDelta> deltas;
  for (int64_t i = 0; i < 4; ++i) {
    DeltaTxn txn(view);
    program(txn, i);
    deltas.push_back(txn.Take());
  }
  ASSERT_TRUE(store_.CommitBatch(std::move(deltas)).ok());

  ASSERT_EQ(store_.num_objects(), serial.num_objects());
  for (uint64_t o = 1; o <= serial.num_objects(); ++o) {
    auto a = store_.Get(Oid(o));
    auto b = serial.Get(Oid(o));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ((*a)->type(), (*b)->type());
    ASSERT_EQ((*a)->attrs().size(), (*b)->attrs().size());
    for (size_t i = 0; i < (*a)->attrs().size(); ++i) {
      EXPECT_EQ((*a)->attr_at(i).ToString(), (*b)->attr_at(i).ToString())
          << "oid " << o << " attr " << i;
    }
  }
}

// The reader/writer storm scripts/snapshot_storm.sh drives under TSan:
// writers hammer the head (creates, in-place writes, batch commits) while
// readers continuously open snapshots and check each one is internally
// frozen — same oid reads the same value twice, the extent never outgrows
// the view, and epochs only move forward.
TEST_F(StoreVersionTest, ConcurrentReadersAndWritersStorm) {
  constexpr size_t kSeed = 64;
  constexpr size_t kWriterRounds = 200;
  constexpr size_t kReaders = 4;
  for (size_t i = 0; i < kSeed; ++i) {
    MustCreate("seed", static_cast<int64_t>(i));
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};

  std::thread writer([&] {
    for (size_t i = 0; i < kWriterRounds; ++i) {
      auto oid = store_.Create(
          person_, {Value::String("w"), Value::Int(static_cast<int64_t>(i)),
                    Value::Null()});
      if (!oid.ok()) ++failures;
      Oid target(1 + i % kSeed);
      if (!store_.SetAttr(target, "age", Value::Int(static_cast<int64_t>(i)))
               .ok()) {
        ++failures;
      }
      if (i % 16 == 0) {
        // Batch commits interleave with plain head writes.
        std::vector<ItemDelta> deltas(1);
        DeltaTxn txn(store_.Snapshot());
        auto created = txn.Create(
            person_, {Value::String("batch"),
                      Value::Int(static_cast<int64_t>(i)), Value::Null()});
        if (!created.ok()) ++failures;
        deltas[0] = txn.Take();
        if (!store_.CommitBatch(std::move(deltas)).ok()) ++failures;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load()) {
        StoreView view = store_.Snapshot();
        if (view.epoch() < last_epoch) ++failures;  // epochs are monotonic
        last_epoch = view.epoch();
        for (uint64_t o = 1; o <= kSeed; ++o) {
          auto first = view.GetAttr(Oid(o), "age");
          auto second = view.GetAttr(Oid(o), "age");
          if (!first.ok() || !second.ok() ||
              first->int_value() != second->int_value()) {
            ++failures;  // a snapshot is frozen: re-reads never move
          }
        }
        auto extent = view.Extent("Person");
        if (!extent.ok() || (**extent).size() > view.num_objects()) {
          ++failures;
        }
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(store_.num_objects(),
            kSeed + kWriterRounds + kWriterRounds / 16);
}

}  // namespace
}  // namespace aqua
