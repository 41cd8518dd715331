// Predicate evaluation reads the stored attribute in place, resolving it by
// interned attribute id instead of by name. These tests pin that the
// verdicts are exactly the ones a `GetAttr`-based evaluation gives, across
// types that declare the same attribute at different positions, across two
// schemas, on every store surface, and under a parallel fan-out.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "pattern/alphabet.h"
#include "pattern/list_matcher.h"
#include "test_util.h"

namespace aqua {
namespace {

// The pre-slot evaluation rule, over `GetAttr` (a by-name `Value` copy):
// absent or null is false, == / != use `Value::Equals`, ordered operators
// `Value::Compare` (incomparable is false).
template <typename Src>
bool ReferenceEval(const Predicate& p, const Src& src, Oid oid) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompare: {
      Result<Value> v = src.GetAttr(oid, p.attr());
      if (!v.ok() || v->is_null()) return false;
      if (p.op() == CmpOp::kEq) return v->Equals(p.constant());
      if (p.op() == CmpOp::kNe) return !v->Equals(p.constant());
      Result<int> cmp = v->Compare(p.constant());
      if (!cmp.ok()) return false;
      switch (p.op()) {
        case CmpOp::kLt:
          return *cmp < 0;
        case CmpOp::kLe:
          return *cmp <= 0;
        case CmpOp::kGt:
          return *cmp > 0;
        case CmpOp::kGe:
          return *cmp >= 0;
        default:
          return false;
      }
    }
    case Predicate::Kind::kAnd:
      return ReferenceEval(*p.left(), src, oid) &&
             ReferenceEval(*p.right(), src, oid);
    case Predicate::Kind::kOr:
      return ReferenceEval(*p.left(), src, oid) ||
             ReferenceEval(*p.right(), src, oid);
    case Predicate::Kind::kNot:
      return !ReferenceEval(*p.left(), src, oid);
  }
  return false;
}

AttrDef A(const std::string& name, ValueType type) {
  return AttrDef{name, type, /*stored=*/true};
}

// Schema 1: `pitch` is slot 0 of Note but slot 2 of Chord; Rest lacks it.
void RegisterSchemaOne(ObjectStore& store) {
  Schema& s = store.schema();
  ASSERT_OK(s.RegisterType("Note", {A("pitch", ValueType::kString),
                                    A("duration", ValueType::kInt)}));
  ASSERT_OK(s.RegisterType("Chord", {A("duration", ValueType::kInt),
                                     A("root", ValueType::kString),
                                     A("pitch", ValueType::kString)}));
  ASSERT_OK(s.RegisterType("Rest", {A("duration", ValueType::kDouble)}));
}

// Schema 2: other type ids, other positions, one extra attribute.
void RegisterSchemaTwo(ObjectStore& store) {
  Schema& s = store.schema();
  ASSERT_OK(s.RegisterType("Rest", {A("label", ValueType::kString),
                                    A("duration", ValueType::kDouble)}));
  ASSERT_OK(s.RegisterType("Chord", {A("pitch", ValueType::kString),
                                     A("duration", ValueType::kInt)}));
  ASSERT_OK(s.RegisterType("Note", {A("velocity", ValueType::kInt),
                                    A("duration", ValueType::kInt),
                                    A("pitch", ValueType::kString),
                                    A("root", ValueType::kString)}));
}

// Interleaves Note/Chord/Rest objects (some attributes null) and appends
// one oid that names no object.
std::vector<Oid> MakeInterleaved(ObjectStore& store, uint64_t seed) {
  static const char* kPitches[] = {"A", "B", "C", "D", "E", "F", "G"};
  std::mt19937_64 rng(seed);
  std::vector<Oid> oids;
  for (int i = 0; i < 300; ++i) {
    auto pitch = [&]() -> Value {
      return rng() % 9 == 0 ? Value::Null()
                            : Value::String(kPitches[rng() % 7]);
    };
    Value duration = rng() % 11 == 0
                         ? Value::Null()
                         : Value::Int(static_cast<int64_t>(rng() % 9));
    std::vector<AttrValue> attrs;
    std::string type;
    switch (i % 3) {
      case 0:
        type = "Note";
        attrs = {{"pitch", pitch()}, {"duration", duration}};
        break;
      case 1:
        type = "Chord";
        attrs = {{"pitch", pitch()}, {"duration", duration},
                 {"root", pitch()}};
        break;
      default:
        type = "Rest";
        attrs = {{"duration", duration.is_null()
                                  ? Value::Null()
                                  : Value::Double(duration.int_value() / 2.0)}};
        break;
    }
    // Keep the attributes this schema's type declares.
    const TypeDef* def = *store.schema().GetType(type);
    std::erase_if(attrs,
                  [def](const AttrValue& a) { return !def->HasAttr(a.name); });
    Result<Oid> oid = store.Create(type, std::move(attrs));
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    if (oid.ok()) oids.push_back(*oid);
  }
  oids.push_back(Oid(store.num_objects() + 100));
  return oids;
}

std::vector<PredicateRef> ParsedPredicates() {
  std::vector<PredicateRef> out;
  for (const char* text :
       {"pitch == \"A\"", "pitch != \"A\"", "pitch < \"C\"",
        "pitch >= \"E\"", "duration == 4", "duration > 4",
        "duration <= 2.5", "duration != 8", "duration == 2.0",
        "pitch > 3", "duration == \"x\"", "root == \"C\" || pitch == \"G\"",
        "!(duration >= 4) && pitch != \"B\"", "missing == 1", "true",
        "!(root == \"D\")"}) {
    Result<PredicateRef> p = ParsePredicate(text);
    EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
    if (p.ok()) out.push_back(*p);
  }
  return out;
}

class PredicateSlotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterSchemaOne(one_);
    RegisterSchemaTwo(two_);
    oids_one_ = MakeInterleaved(one_, 7);
    oids_two_ = MakeInterleaved(two_, 7);
    preds_ = ParsedPredicates();
  }

  // Checks every predicate on every oid of `store` through the snapshot,
  // head and both txn surfaces against the GetAttr reference; returns how
  // many verdicts were true (so callers can assert non-trivial coverage).
  size_t CheckAllSurfaces(ObjectStore& store, const std::vector<Oid>& oids) {
    StoreView view(store);
    DirectTxn direct(&store);
    size_t trues = 0;
    for (const PredicateRef& p : preds_) {
      for (Oid oid : oids) {
        bool want = ReferenceEval(*p, view, oid);
        EXPECT_EQ(p->Eval(view, oid), want) << p->ToString();
        EXPECT_EQ(p->Eval(store, oid), ReferenceEval(*p, store, oid))
            << p->ToString();
        EXPECT_EQ(p->Eval(direct, oid), ReferenceEval(*p, direct, oid))
            << p->ToString();
        trues += want ? 1 : 0;
      }
    }
    return trues;
  }

  ObjectStore one_;
  ObjectStore two_;
  std::vector<Oid> oids_one_;
  std::vector<Oid> oids_two_;
  std::vector<PredicateRef> preds_;
};

TEST_F(PredicateSlotTest, SameAttributeAtDifferentSlotsMatchesGetAttr) {
  const TypeDef* note = one_.schema().FindType(*one_.schema().TypeIdOf("Note"));
  const TypeDef* chord =
      one_.schema().FindType(*one_.schema().TypeIdOf("Chord"));
  ASSERT_NE(note, nullptr);
  ASSERT_NE(chord, nullptr);
  AttrId pitch = InternAttrName("pitch");
  EXPECT_EQ(note->SlotOf(pitch), 0);
  EXPECT_EQ(chord->SlotOf(pitch), 2);
  EXPECT_EQ(note->SlotOf(InternAttrName("root")), -1);

  size_t trues = CheckAllSurfaces(one_, oids_one_);
  size_t total = preds_.size() * oids_one_.size();
  EXPECT_GT(trues, total / 10);
  EXPECT_LT(trues, total);
}

TEST_F(PredicateSlotTest, OneParsedPredicateAgreesAcrossTwoSchemas) {
  // The same predicate objects, evaluated against schema one, then schema
  // two, then schema one again: nothing cached for one schema may leak into
  // the other.
  size_t first = CheckAllSurfaces(one_, oids_one_);
  size_t second = CheckAllSurfaces(two_, oids_two_);
  size_t again = CheckAllSurfaces(one_, oids_one_);
  EXPECT_EQ(first, again);
  EXPECT_GT(second, 0u);

  // Interleaving the two databases item by item.
  StoreView a(one_);
  StoreView b(two_);
  for (const PredicateRef& p : preds_) {
    for (size_t i = 0; i < oids_one_.size(); ++i) {
      EXPECT_EQ(p->Eval(a, oids_one_[i]),
                ReferenceEval(*p, a, oids_one_[i]));
      EXPECT_EQ(p->Eval(b, oids_two_[i]),
                ReferenceEval(*p, b, oids_two_[i]));
    }
  }
}

TEST_F(PredicateSlotTest, DeltaTxnSeesItsOwnWritesAndCreations) {
  DeltaTxn txn{StoreView(one_)};
  ASSERT_OK(txn.SetAttr(oids_one_[0], "pitch", Value::String("A")));
  ASSERT_OK(txn.SetAttr(oids_one_[1], "pitch", Value::Null()));
  ASSERT_OK_AND_ASSIGN(TypeId chord, one_.schema().TypeIdOf("Chord"));
  ASSERT_OK_AND_ASSIGN(
      Oid created,
      txn.Create(chord, {Value::Int(4), Value::String("C"),
                         Value::String("G")}));
  std::vector<Oid> oids = oids_one_;
  oids.push_back(created);
  oids.push_back(MakeProvisionalOid(99));  // never created: absent
  for (const PredicateRef& p : preds_) {
    for (Oid oid : oids) {
      EXPECT_EQ(p->Eval(txn, oid), ReferenceEval(*p, txn, oid))
          << p->ToString() << " oid " << oid.value;
    }
  }
  auto pitch_a = *ParsePredicate("pitch == \"A\"");
  EXPECT_TRUE(pitch_a->Eval(txn, oids_one_[0]));
  EXPECT_FALSE(pitch_a->Eval(txn, oids_one_[1]));
  EXPECT_TRUE((*ParsePredicate("root == \"C\""))->Eval(txn, created));
}

TEST_F(PredicateSlotTest, ColumnarAlphabetAgreesWithReference) {
  for (ObjectStore* store : {&one_, &two_}) {
    const std::vector<Oid>& oids = store == &one_ ? oids_one_ : oids_two_;
    PredicateAlphabet alphabet;
    std::vector<uint32_t> slots;
    for (const PredicateRef& p : preds_) slots.push_back(alphabet.Intern(p));
    alphabet.Seal();
    StoreView view(*store);
    AlphabetScratch scratch;
    alphabet.EvalBatch(view, oids.data(), oids.size(), &scratch);
    size_t stride = alphabet.sig_stride();
    for (size_t i = 0; i < oids.size(); ++i) {
      for (size_t k = 0; k < preds_.size(); ++k) {
        uint32_t slot = slots[k];
        bool bit = (scratch.sigs[i * stride + (slot >> 6)] >> (slot & 63)) & 1;
        EXPECT_EQ(bit, ReferenceEval(*preds_[k], view, oids[i]))
            << preds_[k]->ToString() << " item " << i;
      }
    }
  }
}

TEST_F(PredicateSlotTest, ListMatcherOverInterleavedListMatchesReference) {
  // The interleaved objects as one list: a single-atom pattern matches
  // exactly at the positions whose object satisfies the predicate.
  for (ObjectStore* store : {&one_, &two_}) {
    const std::vector<Oid>& oids = store == &one_ ? oids_one_ : oids_two_;
    List list;
    for (Oid oid : oids) list.Append(NodePayload::Cell(oid));
    StoreView view(*store);
    for (const PredicateRef& p : preds_) {
      AnchoredListPattern lp{ListPattern::Pred(p), false, false};
      ListMatcher matcher(view, list);
      ASSERT_OK_AND_ASSIGN(std::vector<ListMatch> matches, matcher.FindAll(lp));
      std::vector<size_t> got;
      for (const ListMatch& m : matches) got.push_back(m.begin);
      std::vector<size_t> want;
      for (size_t i = 0; i < oids.size(); ++i) {
        if (ReferenceEval(*p, view, oids[i])) want.push_back(i);
      }
      EXPECT_EQ(got, want) << p->ToString();
    }
  }
}

TEST_F(PredicateSlotTest, ParallelFanOutMatchesSerialReference) {
  exec::ThreadPool pool(3);
  for (ObjectStore* store : {&one_, &two_}) {
    const std::vector<Oid>& oids = store == &one_ ? oids_one_ : oids_two_;
    StoreView view(*store);
    std::vector<uint8_t> want(oids.size() * preds_.size());
    for (size_t i = 0; i < oids.size(); ++i) {
      for (size_t k = 0; k < preds_.size(); ++k) {
        want[i * preds_.size() + k] = ReferenceEval(*preds_[k], view, oids[i]);
      }
    }
    for (int round = 0; round < 8; ++round) {
      std::vector<uint8_t> got(want.size(), 2);
      exec::FanOutOptions opts;
      opts.threads = 4;
      ASSERT_OK(exec::RunMorsels(
          pool, oids.size(), opts, [&](const exec::Morsel& m) -> Status {
            for (size_t i = m.begin; i < m.end; ++i) {
              for (size_t k = 0; k < preds_.size(); ++k) {
                got[i * preds_.size() + k] = preds_[k]->Eval(view, oids[i]);
              }
            }
            return Status::OK();
          }));
      ASSERT_EQ(got, want) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace aqua
