#ifndef AQUA_PATTERN_ALPHABET_H_
#define AQUA_PATTERN_ALPHABET_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "object/store_view.h"
#include "pattern/predicate.h"

namespace aqua {

/// Structural hash of a predicate AST: kind, attribute names, comparison
/// operators, and constants all contribute; source spans do not. Two
/// structurally equal predicates hash equal (constants are hashed through
/// `Value::Hash`, which already collapses numerically equal int/double).
size_t PredicateStructuralHash(const Predicate& p);

/// Structural equality over predicate ASTs (same shape, attributes,
/// operators, and `Value::Equals`-equal constants; spans ignored).
bool PredicateStructuralEquals(const Predicate& a, const Predicate& b);

/// Canonicalizes structurally equal predicate subtrees to one shared
/// `PredicateRef`. Interning works bottom-up, so a duplicated subtree deep
/// inside two different conjunctions still collapses to one node. Used by
/// the pattern simplifier, so downstream pointer-keyed caches (lint's
/// interval analysis) see each distinct predicate once.
class PredicateInterner {
 public:
  /// Returns the canonical node for `pred` (the first structurally equal
  /// predicate seen), interning every subtree along the way.
  PredicateRef Intern(const PredicateRef& pred);

  /// Number of distinct predicate nodes interned so far.
  size_t size() const { return size_; }

 private:
  std::unordered_map<size_t, std::vector<PredicateRef>> buckets_;
  size_t size_ = 0;
};

/// Reusable buffers for one columnar alphabet evaluation. Matching mutates
/// the scratch, so instances are per worker (each `LazyMultiDfa` owns one);
/// the buffers then amortize across all the morsels one worker scans.
struct AlphabetScratch {
  /// Struct-of-arrays gather of one attribute over the batch. `tag` is the
  /// type tag per item (kNone when the object, the attribute, or the value
  /// is absent/null — exactly the cases `Predicate::Eval` maps to false).
  enum Tag : uint8_t {
    kNone = 0,
    kInt = 1,
    kDouble = 2,
    kString = 3,
    kBool = 4,
    kRef = 5,
  };
  struct Column {
    std::vector<uint8_t> tag;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;  // borrowed from the pinned view
    std::vector<uint8_t> b;
    std::vector<uint64_t> ref;
  };
  std::vector<Column> cols;

  /// Per-leaf and per-program verdict vectors (0/1 bytes).
  std::vector<std::vector<uint8_t>> leaf_sat;
  std::vector<std::vector<uint8_t>> stack;

  /// Packed result: `stride` words per item, bit p = alphabet predicate p.
  std::vector<uint64_t> sigs;

  /// Element staging used by the list automaton's scan (`MultiNfa`).
  std::vector<Oid> oids;
};

/// A shared predicate alphabet over a batch of compiled patterns: every
/// distinct predicate (deduped by structural hash) gets one slot, and the
/// whole alphabet evaluates over an oid batch in one columnar pass —
/// gather each referenced attribute from the pinned `StoreView` into
/// struct-of-arrays scratch once, run each distinct leaf comparison as a
/// tight branch-free loop over the column, combine with vectorized boolean
/// ops, and pack per-item bitsets. The per-item bitset is exactly
/// `Predicate::Eval` of every slot (contract-tested bit for bit), so a
/// merged automaton driven by these signatures answers all patterns with
/// the store-read work of one.
class PredicateAlphabet {
 public:
  /// Interns a predicate (structural dedup) and returns its slot. Must not
  /// be called after `Seal`.
  uint32_t Intern(const PredicateRef& pred);

  /// Compiles the columnar kernels: distinct attribute columns, distinct
  /// leaf comparisons, and one postfix combine program per slot. Counts
  /// the final slot count in `pattern.alphabet_preds`.
  void Seal();

  bool sealed() const { return sealed_; }
  size_t size() const { return preds_.size(); }
  const std::vector<PredicateRef>& preds() const { return preds_; }
  size_t num_attrs() const { return attrs_.size(); }
  size_t num_leaves() const { return leaves_.size(); }

  /// Words per item in the packed signature output.
  size_t sig_stride() const { return (preds_.size() + 63) / 64; }

  /// Evaluates every alphabet predicate over `oids[0..n)`, leaving the
  /// packed per-item bitsets in `scratch->sigs` (n * sig_stride() words).
  /// Requires `Seal()` first.
  void EvalBatch(const StoreView& store, const Oid* oids, size_t n,
                 AlphabetScratch* scratch) const;

 private:
  struct Leaf {
    uint32_t attr_col;
    CmpOp op;
    Value constant;
  };
  struct Instr {
    enum Op : uint8_t { kLeaf, kTrue, kAnd, kOr, kNot };
    Op op;
    uint32_t arg;
  };

  uint32_t InternAttr(AttrId attr);
  uint32_t InternLeaf(const Predicate& leaf);
  void CompileProgram(const Predicate& p, std::vector<Instr>* prog);
  void Gather(const StoreView& store, const Oid* oids, size_t n,
              AlphabetScratch* s) const;
  void EvalLeaf(const Leaf& leaf, const AlphabetScratch::Column& col,
                size_t n, uint8_t* out) const;

  std::vector<PredicateRef> preds_;
  std::vector<size_t> hashes_;  // PredicateStructuralHash per slot
  std::vector<AttrId> attrs_;   // one gathered column per attribute
  std::vector<Leaf> leaves_;
  /// Postfix programs, one per slot: slot p is
  /// code_[prog_begin_[p], prog_begin_[p + 1]).
  std::vector<Instr> code_;
  std::vector<uint32_t> prog_begin_;
  bool sealed_ = false;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_ALPHABET_H_
