#ifndef AQUA_INDEX_ATTRIBUTE_INDEX_H_
#define AQUA_INDEX_ATTRIBUTE_INDEX_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "object/object_store.h"
#include "bulk/list.h"
#include "bulk/tree.h"
#include "pattern/predicate.h"

namespace aqua {

/// A value → node index over one attribute of the cells of a single list or
/// tree.
///
/// This is the access method §4's "Why Split?" relies on: locating all
/// nodes matching a cheap alphabet-predicate (the decomposition anchor)
/// without walking the whole collection. Entries are kept sorted by value
/// (total order), and within one value by document order: each entry
/// carries its node's preorder rank (for a list, its position), recorded
/// once at build time. Probes therefore answer in document order without
/// touching the rest of the collection: a point probe is O(log n + answers),
/// a range probe O(log n + answers · log answers).
class AttributeIndex {
 public:
  /// Indexes every cell node of `tree` on `attr`. Cells whose object lacks
  /// the attribute (heterogeneous trees) are skipped.
  static Result<AttributeIndex> BuildForTree(const StoreView& store,
                                             const Tree& tree,
                                             const std::string& attr);

  /// Indexes every cell element of `list` on `attr`.
  static Result<AttributeIndex> BuildForList(const StoreView& store,
                                             const List& list,
                                             const std::string& attr);

  const std::string& attr() const { return attr_; }
  /// Number of indexed entries.
  size_t size() const { return entries_.size(); }
  /// Number of nodes in the indexed collection (for selectivity).
  size_t collection_size() const { return collection_size_; }
  /// Number of distinct values.
  size_t num_distinct() const { return num_distinct_; }

  /// Nodes whose attribute equals `v`, in document order (tree preorder,
  /// list position), without duplicates.
  std::vector<NodeId> Lookup(const Value& v) const;

  /// Nodes whose attribute lies in the given range (null bounds = open), in
  /// document order, without duplicates.
  std::vector<NodeId> LookupRange(const Value* lo, bool lo_inclusive,
                                  const Value* hi, bool hi_inclusive) const;

  /// True when `pred` is a single comparison on this attribute that the
  /// index can answer (==, <, <=, >, >=).
  bool CanProbe(const Predicate& pred) const;

  /// Answers an index-supported predicate, in document order without
  /// duplicates (what `TreeMatcher::FindAllAtRoots` requires of its roots);
  /// InvalidArgument otherwise.
  Result<std::vector<NodeId>> Probe(const Predicate& pred) const;

  /// Estimated fraction of collection nodes satisfying `pred` (exact for
  /// probe-able predicates; 1.0 otherwise). O(log n); not counted as a
  /// probe.
  double Selectivity(const Predicate& pred) const;

 private:
  struct Entry {
    Value value;
    NodeId node;
    /// Document-order rank of `node` among the collection's cells.
    uint32_t rank;
  };
  // The rank sits in the padding after the node id, so document order
  // costs the index no memory.
  static_assert(sizeof(Entry) == sizeof(std::pair<Value, NodeId>));
  using EntryRange = std::pair<std::vector<Entry>::const_iterator,
                               std::vector<Entry>::const_iterator>;

  /// Entries whose value lies in the given range (null bounds = open).
  EntryRange Bounds(const Value* lo, bool lo_inclusive, const Value* hi,
                    bool hi_inclusive) const;
  /// The entries a probe-able predicate selects.
  EntryRange ProbeBounds(const Predicate& pred) const;
  /// The nodes of `range` in document order; `one_run` when the range
  /// holds a single value (already in rank order).
  static std::vector<NodeId> Nodes(EntryRange range, bool one_run);


  /// `cells` lists the collection's cells in document order.
  static Result<AttributeIndex> Build(
      const StoreView& store, const std::string& attr,
      const std::vector<std::pair<NodeId, Oid>>& cells, size_t total);

  std::string attr_;
  std::vector<Entry> entries_;  // sorted by (value, rank)
  size_t collection_size_ = 0;
  size_t num_distinct_ = 0;
};

}  // namespace aqua

#endif  // AQUA_INDEX_ATTRIBUTE_INDEX_H_
