#ifndef AQUA_BULK_DATUM_H_
#define AQUA_BULK_DATUM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "bulk/list.h"
#include "bulk/notation.h"
#include "bulk/tree.h"

namespace aqua {

/// The universal runtime value of the AQUA algebra.
///
/// Operators in the paper freely compose bulk types (`Set[Tree]`, tuples of
/// tree pieces, ...); `Datum` is the dynamically typed currency that query
/// results and `split` functions traffic in: a scalar, a list, a tree, a
/// tuple of datums, or a set of datums.
class Datum {
 public:
  enum class Kind { kNull, kScalar, kList, kTree, kTuple, kSet };

  /// Constructs the null datum.
  Datum() = default;
  Datum(const Datum& other);
  Datum& operator=(const Datum& other);
  Datum(Datum&& other) noexcept = default;
  Datum& operator=(Datum&& other) noexcept = default;

  static Datum Scalar(Value v);
  static Datum Of(Tree t);
  static Datum Of(List l);
  /// Shares an immutable tree or list instead of copying it (a scan of a
  /// registered collection aliases the collection itself).
  static Datum Of(std::shared_ptr<const Tree> t);
  static Datum Of(std::shared_ptr<const List> l);
  static Datum Tuple(std::vector<Datum> fields);
  /// Builds a set, deduplicating by `Equals` (insertion order kept).
  static Datum Set(std::vector<Datum> elems);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_scalar() const { return kind_ == Kind::kScalar; }
  bool is_list() const { return kind_ == Kind::kList; }
  bool is_tree() const { return kind_ == Kind::kTree; }
  bool is_tuple() const { return kind_ == Kind::kTuple; }
  bool is_set() const { return kind_ == Kind::kSet; }

  const Value& scalar() const { return scalar_; }
  const List& list() const { return *list_; }
  const Tree& tree() const { return *tree_; }
  /// Tuple fields or set elements.
  const std::vector<Datum>& children() const { return children_; }
  size_t size() const { return children_.size(); }
  const Datum& at(size_t i) const { return children_[i]; }

  /// Deep structural equality (sets compare order-insensitively).
  bool Equals(const Datum& other) const;

  /// Structural hash that agrees with `Equals`: equal datums hash equal.
  /// A tree hashes its payloads and arities in preorder (so NodeId
  /// numbering does not matter), a list its elements, a scalar through
  /// `Value::Hash` (8 and 8.0 agree), a set its element hashes
  /// order-insensitively. O(size of the datum).
  uint64_t Hash() const;

  /// True when the set contains an element equal to `d` (set datums only).
  bool SetContains(const Datum& d) const;
  /// Inserts into a set datum unless an equal element is present. The set
  /// keeps each element's `Hash`, so the membership test costs one hash of
  /// `d` plus an `Equals` per element with the same hash.
  void SetInsert(Datum d);
  /// Inserts every element of the set `other`, in its order, like
  /// `SetInsert` does, reusing the hashes `other` stores: a merge of item
  /// result sets is O(output) with no element rehashed.
  void SetUnion(Datum other);
  /// Appends to a tuple datum.
  void TupleAppend(Datum d);

  /// Renders the datum using `label` for cells, e.g.
  /// `{<Ted(@a), Gen(John), [Joe Mary(Ann)]>}`.
  std::string ToString(const LabelFn& label) const;

 private:
  Kind kind_ = Kind::kNull;
  Value scalar_;
  std::shared_ptr<const List> list_;
  std::shared_ptr<const Tree> tree_;
  std::vector<Datum> children_;
  /// The element hashes of a set (positional with `children_`) and, from
  /// `kSetTableMin` elements on, a linear-probing table over them holding
  /// element index + 1 (0 = empty slot), at most half full.
  struct SetIndex {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> table;
  };
  /// Sets only: null elsewhere, so other datums pay one pointer.
  std::unique_ptr<SetIndex> set_index_;

  SetIndex& EnsureSetIndex();
  bool SetFind(uint64_t hash, const Datum& d) const;
  void SetAppend(Datum d, uint64_t hash);
};

}  // namespace aqua

#endif  // AQUA_BULK_DATUM_H_
