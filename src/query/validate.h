#ifndef AQUA_QUERY_VALIDATE_H_
#define AQUA_QUERY_VALIDATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "lint/diagnostic.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua {

// §3.1, footnote 2: "This cannot be determined by the user, since it would
// be a violation of encapsulation. However, the query optimizer can verify
// that the attributes involved are stored and not computed." This module is
// that verification.

/// Checks every alphabet-predicate reachable from `tp` against the object
/// types actually present in `tree`: each referenced attribute must be a
/// *stored* attribute of every present type that declares it. Returns
/// InvalidArgument naming the offending attribute otherwise.
Status ValidateTreePatternAgainst(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp);

/// The list analogue.
Status ValidateListPatternAgainst(const StoreView& store, const List& list,
                                  const AnchoredListPattern& lp);

/// Walks a plan and validates every pattern/predicate parameter against the
/// collection its scan feeds it from. Plans whose inputs are not direct
/// scans (rewritten shapes, forests) validate against the union of the
/// database's collections named in the subtree.
Status ValidatePlanPatterns(const Database& db, const PlanRef& plan);

// Diagnostic-producing cores of the checks above (code AQL011,
// computed-attribute). The `Validate*` wrappers return the first violation's
// message as a Status; `aqua::lint` consumes the full structured lists.

/// Violations in every alphabet-predicate reachable from `tp`, against the
/// types present in `tree`. Spans point at the offending comparison when the
/// predicate was parsed from text.
std::vector<lint::Diagnostic> TreePatternStoredAttrViolations(
    const StoreView& store, const Tree& tree, const TreePatternRef& tp);

/// The list analogue.
std::vector<lint::Diagnostic> ListPatternStoredAttrViolations(
    const StoreView& store, const List& list, const AnchoredListPattern& lp);

/// The stored-attribute check over the nodes of one plan. It decides from
/// the schema first: a node's predicates can only violate §3.1 when some
/// type declares an attribute they read as computed, and only then are the
/// scanned collections read to see which such types are present. Cost per
/// node otherwise: O(predicate attributes x schema types), no collection
/// access. What a collection holds is cached, so each is read at most once
/// per checker; an instance lives for one `LintPlan` or
/// `ValidatePlanPatterns` call.
class StoredAttrChecker {
 public:
  explicit StoredAttrChecker(const Database& db) : db_(db) {}

  /// Violations for one plan node's own parameters (pred / anchor /
  /// patterns), checked against the types of the collections scanned in its
  /// subtree. Does not recurse into children; unknown collections are
  /// skipped (the lint pass reports those separately as AQL012).
  std::vector<lint::Diagnostic> NodeViolations(const PlanNode& node);

 private:
  /// Indexed by TypeId: the types with a computed attribute that occur.
  using TypeSet = std::vector<bool>;

  const TypeSet& TypesUnder(const PlanNode& node);
  const TypeSet& TypesIn(const std::string& collection);

  const Database& db_;
  std::unordered_map<const PlanNode*, TypeSet> by_node_;
  std::unordered_map<std::string, TypeSet> by_collection_;
};

}  // namespace aqua

#endif  // AQUA_QUERY_VALIDATE_H_
