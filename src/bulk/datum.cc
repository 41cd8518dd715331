#include "bulk/datum.h"

#include <functional>

namespace aqua {

namespace {

/// The splitmix64 finalizer: spreads every input bit over the output.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive combination of a running hash with the next part.
uint64_t Combine(uint64_t h, uint64_t part) {
  return Mix(h + 0x9e3779b97f4a7c15ULL + part);
}

uint64_t PayloadHash(const NodePayload& p) {
  if (p.is_cell()) return Mix(p.oid().value);
  return Mix(std::hash<std::string>{}(p.label()) ^ 0x517cc1b727220a95ULL);
}

/// Sets of at most this many elements find members by a linear scan of
/// their hashes; larger ones keep an open-addressing table.
constexpr size_t kSetTableMin = 16;

}  // namespace

Datum::Datum(const Datum& other)
    : kind_(other.kind_),
      scalar_(other.scalar_),
      list_(other.list_),
      tree_(other.tree_),
      children_(other.children_),
      set_index_(other.set_index_ != nullptr
                     ? std::make_unique<SetIndex>(*other.set_index_)
                     : nullptr) {}

Datum& Datum::operator=(const Datum& other) {
  if (this != &other) *this = Datum(other);
  return *this;
}

Datum Datum::Scalar(Value v) {
  Datum d;
  d.kind_ = Kind::kScalar;
  d.scalar_ = std::move(v);
  return d;
}

Datum Datum::Of(Tree t) {
  return Of(std::make_shared<const Tree>(std::move(t)));
}

Datum Datum::Of(List l) {
  return Of(std::make_shared<const List>(std::move(l)));
}

Datum Datum::Of(std::shared_ptr<const Tree> t) {
  Datum d;
  d.kind_ = Kind::kTree;
  d.tree_ = std::move(t);
  return d;
}

Datum Datum::Of(std::shared_ptr<const List> l) {
  Datum d;
  d.kind_ = Kind::kList;
  d.list_ = std::move(l);
  return d;
}

Datum Datum::Tuple(std::vector<Datum> fields) {
  Datum d;
  d.kind_ = Kind::kTuple;
  d.children_ = std::move(fields);
  return d;
}

Datum Datum::Set(std::vector<Datum> elems) {
  Datum d;
  d.kind_ = Kind::kSet;
  for (auto& e : elems) d.SetInsert(std::move(e));
  return d;
}

bool Datum::Equals(const Datum& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kScalar:
      return scalar_.Equals(other.scalar_);
    case Kind::kList:
      return list_->Equals(*other.list_);
    case Kind::kTree:
      return tree_->StructurallyEquals(*other.tree_);
    case Kind::kTuple: {
      if (children_.size() != other.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i].Equals(other.children_[i])) return false;
      }
      return true;
    }
    case Kind::kSet: {
      if (children_.size() != other.children_.size()) return false;
      // Order-insensitive containment both ways; sets are deduplicated so
      // equal sizes + one-way containment suffices.
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!other.SetFind(set_index_->hashes[i], children_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

uint64_t Datum::Hash() const {
  uint64_t h = Mix(static_cast<uint64_t>(kind_) + 1);
  switch (kind_) {
    case Kind::kNull:
      return h;
    case Kind::kScalar:
      return Combine(h, scalar_.Hash());
    case Kind::kList:
      for (const NodePayload& e : list_->elems()) {
        h = Combine(h, PayloadHash(e));
      }
      return Combine(h, list_->size());
    case Kind::kTree: {
      // Preorder with each node's arity determines the shape, so two
      // structurally equal trees hash alike whatever their NodeIds.
      if (tree_->empty()) return h;
      std::vector<NodeId> stack = {tree_->root()};
      while (!stack.empty()) {
        NodeId v = stack.back();
        stack.pop_back();
        const std::vector<NodeId>& kids = tree_->children(v);
        h = Combine(Combine(h, PayloadHash(tree_->payload(v))), kids.size());
        stack.insert(stack.end(), kids.rbegin(), kids.rend());
      }
      return h;
    }
    case Kind::kTuple:
      for (const Datum& c : children_) h = Combine(h, c.Hash());
      return Combine(h, children_.size());
    case Kind::kSet: {
      // A sum is order-insensitive; the elements are distinct.
      uint64_t sum = 0;
      if (set_index_ != nullptr) {
        for (uint64_t e : set_index_->hashes) sum += e;
      }
      return Combine(Combine(h, sum), children_.size());
    }
  }
  return h;
}

Datum::SetIndex& Datum::EnsureSetIndex() {
  if (set_index_ == nullptr) {
    // A datum that became a set by its first insert: index what it holds.
    std::vector<Datum> held = std::move(children_);
    children_.clear();
    set_index_ = std::make_unique<SetIndex>();
    for (Datum& d : held) {
      const uint64_t h = d.Hash();
      SetAppend(std::move(d), h);
    }
  }
  return *set_index_;
}

bool Datum::SetFind(uint64_t hash, const Datum& d) const {
  if (set_index_ == nullptr) return false;  // no element inserted yet
  const SetIndex& ix = *set_index_;
  if (ix.table.empty()) {
    for (size_t i = 0; i < ix.hashes.size(); ++i) {
      if (ix.hashes[i] == hash && children_[i].Equals(d)) return true;
    }
    return false;
  }
  const size_t mask = ix.table.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t slot = ix.table[s];
    if (slot == 0) return false;
    if (ix.hashes[slot - 1] == hash && children_[slot - 1].Equals(d)) {
      return true;
    }
  }
}

void Datum::SetAppend(Datum d, uint64_t hash) {
  SetIndex& ix = *set_index_;
  children_.push_back(std::move(d));
  ix.hashes.push_back(hash);
  const size_t n = ix.hashes.size();
  if (n < kSetTableMin) return;
  auto place = [&ix](size_t i) {
    const size_t mask = ix.table.size() - 1;
    size_t s = ix.hashes[i] & mask;
    while (ix.table[s] != 0) s = (s + 1) & mask;
    ix.table[s] = static_cast<uint32_t>(i + 1);
  };
  if (2 * n > ix.table.size()) {
    size_t cap = 4 * kSetTableMin;
    while (cap < 4 * n) cap *= 2;
    ix.table.assign(cap, 0);
    for (size_t i = 0; i < n; ++i) place(i);
  } else {
    place(n - 1);
  }
}

bool Datum::SetContains(const Datum& d) const {
  return SetFind(d.Hash(), d);
}

void Datum::SetInsert(Datum d) {
  kind_ = Kind::kSet;
  EnsureSetIndex();
  const uint64_t h = d.Hash();
  if (!SetFind(h, d)) SetAppend(std::move(d), h);
}

void Datum::SetUnion(Datum other) {
  kind_ = Kind::kSet;
  EnsureSetIndex();
  for (size_t i = 0; i < other.children_.size(); ++i) {
    Datum& d = other.children_[i];
    const uint64_t h = other.set_index_ != nullptr
                           ? other.set_index_->hashes[i]
                           : d.Hash();
    if (!SetFind(h, d)) SetAppend(std::move(d), h);
  }
}

void Datum::TupleAppend(Datum d) {
  kind_ = Kind::kTuple;
  children_.push_back(std::move(d));
}

std::string Datum::ToString(const LabelFn& label) const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kScalar:
      return scalar_.ToString();
    case Kind::kList:
      return PrintList(*list_, label);
    case Kind::kTree:
      return PrintTree(*tree_, label);
    case Kind::kTuple: {
      std::string out = "<";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i].ToString(label);
      }
      out += ">";
      return out;
    }
    case Kind::kSet: {
      std::string out = "{";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i].ToString(label);
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace aqua
