#ifndef AQUA_PATTERN_PREDICATE_H_
#define AQUA_PATTERN_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "object/object_store.h"
#include "object/schema.h"
#include "pattern/source_span.h"

namespace aqua {

/// Comparison operators usable in alphabet-predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpToString(CmpOp op);

class Predicate;
using PredicateRef = std::shared_ptr<const Predicate>;

/// An alphabet-predicate (§3.1): a unary boolean function over one object,
/// built only from stored attributes, constants, comparisons, and AND / OR /
/// NOT — which bounds its evaluation cost by its (constant) size.
///
/// Semantics on heterogeneous inputs: a comparison whose attribute is absent
/// from the object's type, or whose operand types are incomparable, is
/// *false* — the lambda `(λ(Person) Person.age > 25)` simply does not match a
/// non-Person object. (`Not` inverts that as ordinary boolean negation.)
class Predicate {
 public:
  enum class Kind { kTrue, kCompare, kAnd, kOr, kNot };

  /// The always-true predicate (the `?` metacharacter).
  static PredicateRef True();
  /// `attr op constant`.
  static PredicateRef Compare(std::string attr, CmpOp op, Value constant);
  /// Shorthand for `attr == constant`.
  static PredicateRef AttrEquals(std::string attr, Value constant);
  static PredicateRef And(PredicateRef a, PredicateRef b);
  static PredicateRef Or(PredicateRef a, PredicateRef b);
  static PredicateRef Not(PredicateRef a);

  Kind kind() const { return kind_; }
  // Compare accessors.
  const std::string& attr() const { return attr_; }
  /// `attr()` interned (`InternAttrName`) when the node was built.
  AttrId attr_id() const { return attr_id_; }
  CmpOp op() const { return op_; }
  const Value& constant() const { return constant_; }
  // Boolean-combination accessors.
  const PredicateRef& left() const { return left_; }
  const PredicateRef& right() const { return right_; }

  /// Evaluates against the object `oid` (constant time in predicate size).
  /// The `StoreView` overload is the hot path: it reads one pinned epoch
  /// lock-free. The `ObjectStore` overload reads the head (locked), and the
  /// `StoreTxn` overload lets `FnExpr` guards see a transaction's own
  /// uncommitted effects. The `StoreView` overload compares the stored
  /// attribute in place, resolved through `attr_id()` (no name hashing, no
  /// copy); the other two go through `GetAttr`. All three give the verdict
  /// `GetAttr` would.
  bool Eval(const StoreView& store, Oid oid) const;
  bool Eval(const ObjectStore& store, Oid oid) const;
  bool Eval(const StoreTxn& store, Oid oid) const;

  /// Verifies the §3.1 restriction against a type: every referenced
  /// attribute must be declared *and stored* (footnote 2: the optimizer, not
  /// the user, checks this).
  Status ValidateAgainst(const TypeDef& type) const;

  /// Appends the names of all attributes this predicate reads.
  void CollectAttrs(std::vector<std::string>* out) const;

  /// Number of AST nodes.
  size_t SizeInNodes() const;

  /// Renders e.g. `{citizen == "Brazil" && age > 25}` (no braces inside).
  std::string ToString() const;

  /// Source range this node was parsed from (invalid when built
  /// programmatically). Set once by the parser on the freshly built node.
  const SourceSpan& span() const { return span_; }
  void set_span(SourceSpan span) { span_ = span; }

 private:
  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  std::string attr_;
  AttrId attr_id_ = 0;
  CmpOp op_ = CmpOp::kEq;
  Value constant_;
  PredicateRef left_;
  PredicateRef right_;
  SourceSpan span_;
};

/// A registry of named predicates, used by the pattern parser so queries can
/// use the paper's shorthand (e.g. `Brazil` for
/// `(λ(p) p.citizen = "Brazil")`).
class PredicateEnv {
 public:
  void Bind(std::string name, PredicateRef pred);
  Result<PredicateRef> Lookup(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, PredicateRef>> bindings_;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_PREDICATE_H_
