#include "query/validate.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace aqua {

namespace {

void CollectListPatternPreds(const ListPattern& lp,
                             std::vector<PredicateRef>* out);

void CollectTreePatternPreds(const TreePattern& tp,
                             std::vector<PredicateRef>* out) {
  switch (tp.kind()) {
    case TreePattern::Kind::kLeaf:
      if (tp.pred() != nullptr) out->push_back(tp.pred());
      return;
    case TreePattern::Kind::kNode:
      if (tp.pred() != nullptr) out->push_back(tp.pred());
      CollectListPatternPreds(*tp.children(), out);
      return;
    case TreePattern::Kind::kPoint:
      return;
    default:
      for (const auto& part : tp.alts()) {
        CollectTreePatternPreds(*part, out);
      }
      return;
  }
}

void CollectListPatternPreds(const ListPattern& lp,
                             std::vector<PredicateRef>* out) {
  switch (lp.kind()) {
    case ListPattern::Kind::kPred:
      out->push_back(lp.pred());
      return;
    case ListPattern::Kind::kTreeAtom:
      CollectTreePatternPreds(*lp.tree_atom(), out);
      return;
    case ListPattern::Kind::kAny:
    case ListPattern::Kind::kPoint:
      return;
    default:
      for (const auto& part : lp.parts()) {
        CollectListPatternPreds(*part, out);
      }
      return;
  }
}

using TypeSet = std::vector<bool>;

/// True when type `type` declares `attr` with `stored == false`.
bool DeclaresComputed(const Schema& schema, TypeId type,
                      const std::string& attr) {
  const TypeDef* def = *schema.GetType(type);
  return def->HasAttr(attr) && !def->attrs()[*def->AttrIndex(attr)].stored;
}

/// Looks up the types of cells, watching for the types that declare some
/// attribute computed: only their presence can make a predicate
/// inadmissible, so the scan is done once each of them has been seen.
class CellTypeScan {
 public:
  explicit CellTypeScan(const StoreView& store) : store_(store) {
    const Schema& schema = store.schema();
    wanted_.resize(schema.num_types());
    for (TypeId t = 0; t < wanted_.size(); ++t) {
      const std::vector<AttrDef>& attrs = (*schema.GetType(t))->attrs();
      wanted_[t] = std::any_of(attrs.begin(), attrs.end(),
                               [](const AttrDef& a) { return !a.stored; });
      if (wanted_[t]) ++missing_;
    }
    found_.assign(wanted_.size(), false);
  }

  bool done() const { return missing_ == 0; }

  void Visit(const NodePayload& p) {
    if (!p.is_cell()) return;
    ++cells_;
    auto obj = store_.Get(p.oid());
    if (!obj.ok()) return;
    TypeId t = (*obj)->type();
    if (t < wanted_.size() && wanted_[t] && !found_[t]) {
      found_[t] = true;
      --missing_;
    }
  }

  /// The wanted types found; counts the cells looked up.
  TypeSet Finish() {
    AQUA_OBS_COUNT("lint.attr_scan_cells", cells_);
    return std::move(found_);
  }

 private:
  const StoreView& store_;
  TypeSet wanted_;
  TypeSet found_;
  size_t missing_ = 0;
  uint64_t cells_ = 0;
};

TypeSet ComputedTypesIn(const StoreView& store, const Tree& tree) {
  CellTypeScan scan(store);
  std::vector<NodeId> stack;
  if (!tree.empty()) stack.push_back(tree.root());
  while (!stack.empty() && !scan.done()) {
    NodeId v = stack.back();
    stack.pop_back();
    scan.Visit(tree.payload(v));
    const std::vector<NodeId>& kids = tree.children(v);
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return scan.Finish();
}

TypeSet ComputedTypesIn(const StoreView& store, const List& list) {
  CellTypeScan scan(store);
  for (const NodePayload& p : list.elems()) {
    if (scan.done()) break;
    scan.Visit(p);
  }
  return scan.Finish();
}

/// The comparison node that reads `attr`, for span attribution.
const Predicate* FindCompareOnAttr(const Predicate& pred,
                                   const std::string& attr) {
  if (pred.kind() == Predicate::Kind::kCompare) {
    return pred.attr() == attr ? &pred : nullptr;
  }
  if (pred.left() != nullptr) {
    if (const Predicate* hit = FindCompareOnAttr(*pred.left(), attr)) {
      return hit;
    }
  }
  if (pred.right() != nullptr) {
    return FindCompareOnAttr(*pred.right(), attr);
  }
  return nullptr;
}

/// A predicate is admissible when every attribute it reads is *stored* in
/// every present type that declares it. Types without the attribute are
/// fine — the predicate simply never matches those objects (§3.1). Each
/// violation becomes one AQL011 diagnostic, naming the lowest-id present
/// type that declares the attribute computed.
///
/// The schema decides first. `present()` yields the computed-attribute
/// types that occur in the scanned collections; it is called at most once,
/// and only when some type declares a read attribute computed.
template <typename PresentFn>
std::vector<lint::Diagnostic> Violations(const Schema& schema,
                                         const std::vector<PredicateRef>& preds,
                                         PresentFn present) {
  std::vector<lint::Diagnostic> out;
  const TypeSet* types = nullptr;
  std::vector<std::string> attrs;
  for (const PredicateRef& pred : preds) {
    if (pred == nullptr) continue;
    attrs.clear();
    pred->CollectAttrs(&attrs);
    for (const std::string& attr : attrs) {
      for (TypeId t = 0; t < schema.num_types(); ++t) {
        if (!DeclaresComputed(schema, t, attr)) continue;
        if (types == nullptr) types = &present();
        if (!(*types)[t]) continue;
        lint::Diagnostic d;
        d.code = lint::DiagCode::kComputedAttribute;
        d.severity = lint::DefaultSeverity(d.code);
        d.message =
            "alphabet-predicates may only use stored attributes (§3.1): '" +
            attr + "' is computed in type '" + (*schema.GetType(t))->name() +
            "'";
        if (const Predicate* site = FindCompareOnAttr(*pred, attr)) {
          d.span = site->span();
        }
        out.push_back(std::move(d));
        break;  // one diagnostic per attribute, not per type
      }
    }
  }
  return out;
}

/// First violation as the legacy Status (message text unchanged).
Status FirstViolationStatus(const std::vector<lint::Diagnostic>& diags) {
  if (diags.empty()) return Status::OK();
  return Status::InvalidArgument(diags.front().message);
}

bool ScansCollection(PlanOp op) {
  return op == PlanOp::kScanTree || op == PlanOp::kScanList ||
         op == PlanOp::kIndexedSubSelect ||
         op == PlanOp::kIndexedListSubSelect;
}

void CollectScanCollections(const PlanRef& node,
                            std::vector<std::string>* out) {
  if (node == nullptr) return;
  if (ScansCollection(node->op)) out->push_back(node->collection);
  for (const PlanRef& child : node->children) {
    CollectScanCollections(child, out);
  }
}

std::vector<PredicateRef> NodeParameterPreds(const PlanNode& node) {
  std::vector<PredicateRef> preds;
  if (node.pred != nullptr) preds.push_back(node.pred);
  if (node.anchor != nullptr) preds.push_back(node.anchor);
  if (node.tpattern != nullptr) CollectTreePatternPreds(*node.tpattern, &preds);
  if (node.lpattern.body != nullptr) {
    CollectListPatternPreds(*node.lpattern.body, &preds);
  }
  return preds;
}

/// Preorder walk stopping at the first violating node.
Status ValidateNodes(StoredAttrChecker* checker, const PlanRef& node) {
  if (node == nullptr) return Status::InvalidArgument("null plan");
  AQUA_RETURN_IF_ERROR(FirstViolationStatus(checker->NodeViolations(*node)));
  for (const PlanRef& child : node->children) {
    AQUA_RETURN_IF_ERROR(ValidateNodes(checker, child));
  }
  return Status::OK();
}

}  // namespace

std::vector<lint::Diagnostic> StoredAttrChecker::NodeViolations(
    const PlanNode& node) {
  return Violations(db_.store().schema(), NodeParameterPreds(node),
                    [&]() -> const TypeSet& { return TypesUnder(node); });
}

const StoredAttrChecker::TypeSet& StoredAttrChecker::TypesUnder(
    const PlanNode& node) {
  auto it = by_node_.find(&node);
  if (it != by_node_.end()) return it->second;
  TypeSet types(db_.store().schema().num_types(), false);
  auto add = [&types](const TypeSet& more) {
    for (size_t t = 0; t < more.size(); ++t) {
      if (more[t]) types[t] = true;
    }
  };
  if (ScansCollection(node.op)) add(TypesIn(node.collection));
  for (const PlanRef& child : node.children) {
    if (child != nullptr) add(TypesUnder(*child));
  }
  return by_node_.emplace(&node, std::move(types)).first->second;
}

const StoredAttrChecker::TypeSet& StoredAttrChecker::TypesIn(
    const std::string& collection) {
  auto it = by_collection_.find(collection);
  if (it != by_collection_.end()) return it->second;
  TypeSet types;  // unknown collection: nothing present (AQL012's job)
  if (db_.HasTree(collection)) {
    types = ComputedTypesIn(db_.store(), **db_.GetTree(collection));
  } else if (db_.HasList(collection)) {
    types = ComputedTypesIn(db_.store(), **db_.GetList(collection));
  }
  return by_collection_.emplace(collection, std::move(types)).first->second;
}

std::vector<lint::Diagnostic> TreePatternStoredAttrViolations(
    const StoreView& store, const Tree& tree, const TreePatternRef& tp) {
  if (tp == nullptr) return {};
  std::vector<PredicateRef> preds;
  CollectTreePatternPreds(*tp, &preds);
  TypeSet types;
  return Violations(store.schema(), preds, [&]() -> const TypeSet& {
    types = ComputedTypesIn(store, tree);
    return types;
  });
}

std::vector<lint::Diagnostic> ListPatternStoredAttrViolations(
    const StoreView& store, const List& list, const AnchoredListPattern& lp) {
  if (lp.body == nullptr) return {};
  std::vector<PredicateRef> preds;
  CollectListPatternPreds(*lp.body, &preds);
  TypeSet types;
  return Violations(store.schema(), preds, [&]() -> const TypeSet& {
    types = ComputedTypesIn(store, list);
    return types;
  });
}

Status ValidateTreePatternAgainst(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  return FirstViolationStatus(TreePatternStoredAttrViolations(store, tree, tp));
}

Status ValidateListPatternAgainst(const StoreView& store, const List& list,
                                  const AnchoredListPattern& lp) {
  if (lp.body == nullptr) return Status::InvalidArgument("null list pattern");
  return FirstViolationStatus(
      ListPatternStoredAttrViolations(store, list, lp));
}

Status ValidatePlanPatterns(const Database& db, const PlanRef& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  // Unknown collections stay hard errors here, unlike the lint pass. They
  // are checked by name, since the stored-attribute check below may never
  // read a collection.
  std::vector<std::string> collections;
  CollectScanCollections(plan, &collections);
  for (const std::string& name : collections) {
    if (!db.HasTree(name)) AQUA_RETURN_IF_ERROR(db.GetList(name).status());
  }
  StoredAttrChecker checker(db);
  return ValidateNodes(&checker, plan);
}

}  // namespace aqua
