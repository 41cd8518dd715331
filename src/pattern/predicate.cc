#include "pattern/predicate.h"

namespace aqua {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

PredicateRef Predicate::True() {
  static const PredicateRef kTrue = [] {
    auto p = std::shared_ptr<Predicate>(new Predicate());
    p->kind_ = Kind::kTrue;
    return p;
  }();
  return kTrue;
}

PredicateRef Predicate::Compare(std::string attr, CmpOp op, Value constant) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kCompare;
  p->attr_ = std::move(attr);
  p->attr_id_ = InternAttrName(p->attr_);
  p->op_ = op;
  p->constant_ = std::move(constant);
  return p;
}

PredicateRef Predicate::AttrEquals(std::string attr, Value constant) {
  return Compare(std::move(attr), CmpOp::kEq, std::move(constant));
}

PredicateRef Predicate::And(PredicateRef a, PredicateRef b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicateRef Predicate::Or(PredicateRef a, PredicateRef b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicateRef Predicate::Not(PredicateRef a) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->left_ = std::move(a);
  return p;
}

namespace {

// The comparison rule of one `attr op constant` leaf over the attribute
// read in place: absent (null pointer) or null is false, equality goes
// through `Value::Equals`, ordered operators through `Value::Compare`.
bool CompareValue(const Predicate& p, const Value* value) {
  if (value == nullptr || value->is_null()) return false;
  switch (p.op()) {
    case CmpOp::kEq:
      return value->Equals(p.constant());
    case CmpOp::kNe:
      return !value->Equals(p.constant());
    default: {
      auto cmp = value->Compare(p.constant());
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
  }
}

// The pinned view is the matchers' hot path: it hands out a stable pointer,
// resolved by attribute id. The head and txn surfaces serve only apply
// guards and read a copy by name.
bool CompareAttr(const Predicate& p, const StoreView& store, Oid oid) {
  return CompareValue(p, store.FindAttr(oid, p.attr_id()));
}

template <typename Src>
bool CompareAttr(const Predicate& p, const Src& store, Oid oid) {
  Result<Value> v = store.GetAttr(oid, p.attr());
  return CompareValue(p, v.ok() ? &*v : nullptr);
}

// One body for the three store surfaces (snapshot view, head, txn overlay).
template <typename Src>
bool EvalOn(const Predicate& p, const Src& store, Oid oid) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompare:
      return CompareAttr(p, store, oid);
    case Predicate::Kind::kAnd:
      return EvalOn(*p.left(), store, oid) && EvalOn(*p.right(), store, oid);
    case Predicate::Kind::kOr:
      return EvalOn(*p.left(), store, oid) || EvalOn(*p.right(), store, oid);
    case Predicate::Kind::kNot:
      return !EvalOn(*p.left(), store, oid);
  }
  return false;
}

}  // namespace

bool Predicate::Eval(const StoreView& store, Oid oid) const {
  return EvalOn(*this, store, oid);
}

bool Predicate::Eval(const ObjectStore& store, Oid oid) const {
  return EvalOn(*this, store, oid);
}

bool Predicate::Eval(const StoreTxn& store, Oid oid) const {
  return EvalOn(*this, store, oid);
}

Status Predicate::ValidateAgainst(const TypeDef& type) const {
  switch (kind_) {
    case Kind::kTrue:
      return Status::OK();
    case Kind::kCompare: {
      AQUA_ASSIGN_OR_RETURN(size_t idx, type.AttrIndex(attr_));
      if (!type.attrs()[idx].stored) {
        return Status::InvalidArgument(
            "alphabet-predicates may only use stored attributes; '" + attr_ +
            "' of type '" + type.name() + "' is computed (§3.1)");
      }
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr:
      AQUA_RETURN_IF_ERROR(left_->ValidateAgainst(type));
      return right_->ValidateAgainst(type);
    case Kind::kNot:
      return left_->ValidateAgainst(type);
  }
  return Status::OK();
}

void Predicate::CollectAttrs(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kCompare:
      out->push_back(attr_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left_->CollectAttrs(out);
      right_->CollectAttrs(out);
      return;
    case Kind::kNot:
      left_->CollectAttrs(out);
      return;
  }
}

size_t Predicate::SizeInNodes() const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kCompare:
      return 1;
    case Kind::kAnd:
    case Kind::kOr:
      return 1 + left_->SizeInNodes() + right_->SizeInNodes();
    case Kind::kNot:
      return 1 + left_->SizeInNodes();
  }
  return 1;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare:
      return attr_ + " " + CmpOpToString(op_) + " " + constant_.ToString();
    case Kind::kAnd:
      return "(" + left_->ToString() + " && " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " || " + right_->ToString() + ")";
    case Kind::kNot:
      return "!(" + left_->ToString() + ")";
  }
  return "?";
}

void PredicateEnv::Bind(std::string name, PredicateRef pred) {
  for (auto& kv : bindings_) {
    if (kv.first == name) {
      kv.second = std::move(pred);
      return;
    }
  }
  bindings_.emplace_back(std::move(name), std::move(pred));
}

Result<PredicateRef> PredicateEnv::Lookup(const std::string& name) const {
  for (const auto& kv : bindings_) {
    if (kv.first == name) return kv.second;
  }
  return Status::NotFound("no predicate named '" + name + "'");
}

bool PredicateEnv::Has(const std::string& name) const {
  for (const auto& kv : bindings_) {
    if (kv.first == name) return true;
  }
  return false;
}

}  // namespace aqua
