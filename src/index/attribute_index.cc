#include "index/attribute_index.h"

#include <algorithm>

#include "obs/metrics.h"

namespace aqua {

Result<AttributeIndex> AttributeIndex::Build(
    const StoreView& store, const std::string& attr,
    const std::vector<std::pair<NodeId, Oid>>& cells, size_t total) {
  AttributeIndex index;
  index.attr_ = attr;
  index.collection_size_ = total;
  index.entries_.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    auto value = store.GetAttr(cells[i].second, attr);
    if (!value.ok()) {
      if (value.status().IsNotFound()) continue;  // heterogeneous collection
      return value.status();
    }
    if (value->is_null()) continue;
    index.entries_.push_back(
        Entry{std::move(*value), cells[i].first, static_cast<uint32_t>(i)});
  }
  std::sort(index.entries_.begin(), index.entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.value.TotalLess(b.value)) return true;
              if (b.value.TotalLess(a.value)) return false;
              return a.rank < b.rank;
            });
  size_t distinct = 0;
  for (size_t i = 0; i < index.entries_.size(); ++i) {
    if (i == 0 || !index.entries_[i].value.Equals(index.entries_[i - 1].value)) {
      ++distinct;
    }
  }
  index.num_distinct_ = distinct;
  return index;
}

Result<AttributeIndex> AttributeIndex::BuildForTree(const StoreView& store,
                                                    const Tree& tree,
                                                    const std::string& attr) {
  std::vector<std::pair<NodeId, Oid>> cells;
  for (NodeId v : tree.Preorder()) {
    const NodePayload& p = tree.payload(v);
    if (p.is_cell()) cells.emplace_back(v, p.oid());
  }
  return Build(store, attr, cells, tree.size());
}

Result<AttributeIndex> AttributeIndex::BuildForList(const StoreView& store,
                                                    const List& list,
                                                    const std::string& attr) {
  std::vector<std::pair<NodeId, Oid>> cells;
  for (size_t i = 0; i < list.size(); ++i) {
    const NodePayload& p = list.at(i);
    if (p.is_cell()) cells.emplace_back(static_cast<NodeId>(i), p.oid());
  }
  return Build(store, attr, cells, list.size());
}

AttributeIndex::EntryRange AttributeIndex::Bounds(const Value* lo,
                                                  bool lo_inclusive,
                                                  const Value* hi,
                                                  bool hi_inclusive) const {
  auto entry_less = [](const Entry& e, const Value& v) {
    return e.value.TotalLess(v);
  };
  auto value_less = [](const Value& v, const Entry& e) {
    return v.TotalLess(e.value);
  };
  auto begin = entries_.begin();
  auto end = entries_.end();
  if (lo != nullptr) {
    begin = lo_inclusive
                ? std::lower_bound(entries_.begin(), entries_.end(), *lo,
                                   entry_less)
                : std::upper_bound(entries_.begin(), entries_.end(), *lo,
                                   value_less);
  }
  if (hi != nullptr) {
    end = hi_inclusive
              ? std::upper_bound(entries_.begin(), entries_.end(), *hi,
                                 value_less)
              : std::lower_bound(entries_.begin(), entries_.end(), *hi,
                                 entry_less);
  }
  if (end < begin) end = begin;  // empty range, e.g. lo > hi
  return {begin, end};
}

std::vector<NodeId> AttributeIndex::Nodes(EntryRange range, bool one_run) {
  std::vector<NodeId> out;
  out.reserve(range.second - range.first);
  if (one_run) {
    // One value's entries are one run, already in document order.
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->node);
    }
    return out;
  }
  // Several runs: merge them into document order by rank.
  std::vector<std::pair<uint32_t, NodeId>> ranked;
  ranked.reserve(range.second - range.first);
  for (auto it = range.first; it != range.second; ++it) {
    ranked.emplace_back(it->rank, it->node);
  }
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [rank, node] : ranked) out.push_back(node);
  return out;
}

std::vector<NodeId> AttributeIndex::Lookup(const Value& v) const {
  return Nodes(Bounds(&v, true, &v, true), /*one_run=*/true);
}

std::vector<NodeId> AttributeIndex::LookupRange(const Value* lo,
                                                bool lo_inclusive,
                                                const Value* hi,
                                                bool hi_inclusive) const {
  return Nodes(Bounds(lo, lo_inclusive, hi, hi_inclusive), /*one_run=*/false);
}

AttributeIndex::EntryRange AttributeIndex::ProbeBounds(
    const Predicate& pred) const {
  const Value& c = pred.constant();
  switch (pred.op()) {
    case CmpOp::kEq:
      return Bounds(&c, true, &c, true);
    case CmpOp::kLt:
      return Bounds(nullptr, false, &c, false);
    case CmpOp::kLe:
      return Bounds(nullptr, false, &c, true);
    case CmpOp::kGt:
      return Bounds(&c, false, nullptr, false);
    case CmpOp::kGe:
      return Bounds(&c, true, nullptr, false);
    case CmpOp::kNe:
      break;
  }
  return {entries_.end(), entries_.end()};
}

bool AttributeIndex::CanProbe(const Predicate& pred) const {
  if (pred.kind() != Predicate::Kind::kCompare) return false;
  if (pred.attr() != attr_) return false;
  switch (pred.op()) {
    case CmpOp::kEq:
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
      return true;
    case CmpOp::kNe:
      return false;
  }
  return false;
}

Result<std::vector<NodeId>> AttributeIndex::Probe(
    const Predicate& pred) const {
  if (!CanProbe(pred)) {
    return Status::InvalidArgument(
        "predicate is not answerable by this index: " + pred.ToString());
  }
  std::vector<NodeId> out =
      Nodes(ProbeBounds(pred), /*one_run=*/pred.op() == CmpOp::kEq);
  AQUA_OBS_COUNT("index.probes", 1);
  AQUA_OBS_COUNT("index.candidates", out.size());
  AQUA_OBS_RECORD("index.candidates_per_probe", out.size());
  return out;
}

double AttributeIndex::Selectivity(const Predicate& pred) const {
  if (collection_size_ == 0) return 0.0;
  if (!CanProbe(pred)) return 1.0;
  // Counted from the probe's bounds: no node list is built and no probe
  // is counted.
  EntryRange range = ProbeBounds(pred);
  return static_cast<double>(range.second - range.first) /
         static_cast<double>(collection_size_);
}

}  // namespace aqua
