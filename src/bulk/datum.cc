#include "bulk/datum.h"

namespace aqua {

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
      for (const Datum& e : children_) {
        if (!other.SetContains(e)) return false;
      }
      return true;
    }
  }
  return false;
}

bool Datum::SetContains(const Datum& d) const {
  for (const Datum& e : children_) {
    if (e.Equals(d)) return true;
  }
  return false;
}

void Datum::SetInsert(Datum d) {
  kind_ = Kind::kSet;
  if (!SetContains(d)) children_.push_back(std::move(d));
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
