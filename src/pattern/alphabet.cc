#include "pattern/alphabet.h"

#include <cstring>

#include "object/schema.h"
#include "obs/metrics.h"

namespace aqua {

namespace {

inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t PredicateStructuralHash(const Predicate& p) {
  size_t h = static_cast<size_t>(p.kind()) * 0x100000001b3ULL;
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return h;
    case Predicate::Kind::kCompare:
      h = HashCombine(h, std::hash<std::string>{}(p.attr()));
      h = HashCombine(h, static_cast<size_t>(p.op()));
      return HashCombine(h, p.constant().Hash());
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      h = HashCombine(h, PredicateStructuralHash(*p.left()));
      return HashCombine(h, PredicateStructuralHash(*p.right()));
    case Predicate::Kind::kNot:
      return HashCombine(h, PredicateStructuralHash(*p.left()));
  }
  return h;
}

bool PredicateStructuralEquals(const Predicate& a, const Predicate& b) {
  if (&a == &b) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompare:
      return a.op() == b.op() && a.attr() == b.attr() &&
             a.constant().type() == b.constant().type() &&
             a.constant().Equals(b.constant());
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return PredicateStructuralEquals(*a.left(), *b.left()) &&
             PredicateStructuralEquals(*a.right(), *b.right());
    case Predicate::Kind::kNot:
      return PredicateStructuralEquals(*a.left(), *b.left());
  }
  return false;
}

PredicateRef PredicateInterner::Intern(const PredicateRef& pred) {
  if (pred == nullptr) return pred;
  PredicateRef node = pred;
  switch (pred->kind()) {
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      PredicateRef l = Intern(pred->left());
      PredicateRef r = Intern(pred->right());
      if (l != pred->left() || r != pred->right()) {
        node = pred->kind() == Predicate::Kind::kAnd
                   ? Predicate::And(std::move(l), std::move(r))
                   : Predicate::Or(std::move(l), std::move(r));
      }
      break;
    }
    case Predicate::Kind::kNot: {
      PredicateRef l = Intern(pred->left());
      if (l != pred->left()) node = Predicate::Not(std::move(l));
      break;
    }
    default:
      break;
  }
  std::vector<PredicateRef>& bucket =
      buckets_[PredicateStructuralHash(*node)];
  for (const PredicateRef& existing : bucket) {
    if (PredicateStructuralEquals(*existing, *node)) return existing;
  }
  bucket.push_back(node);
  ++size_;
  return node;
}

// Slots, leaves and attributes are interned by linear scans. A query's
// alphabet holds a handful of entries and a 64-pattern batch's a few
// hundred, and a scan allocates nothing, which keeps the per-query compile
// of a one-pattern automaton cheap.
uint32_t PredicateAlphabet::InternAttr(AttrId attr) {
  for (uint32_t col = 0; col < attrs_.size(); ++col) {
    if (attrs_[col] == attr) return col;
  }
  attrs_.push_back(attr);
  return static_cast<uint32_t>(attrs_.size() - 1);
}

uint32_t PredicateAlphabet::InternLeaf(const Predicate& leaf) {
  const uint32_t col = InternAttr(leaf.attr_id());
  const Value& c = leaf.constant();
  for (uint32_t id = 0; id < leaves_.size(); ++id) {
    const Leaf& l = leaves_[id];
    if (l.attr_col == col && l.op == leaf.op() &&
        l.constant.type() == c.type() && l.constant.Equals(c)) {
      return id;
    }
  }
  leaves_.push_back(Leaf{col, leaf.op(), c});
  return static_cast<uint32_t>(leaves_.size() - 1);
}

uint32_t PredicateAlphabet::Intern(const PredicateRef& pred) {
  const size_t hash = PredicateStructuralHash(*pred);
  for (uint32_t slot = 0; slot < preds_.size(); ++slot) {
    if (hashes_[slot] == hash &&
        PredicateStructuralEquals(*preds_[slot], *pred)) {
      return slot;
    }
  }
  preds_.push_back(pred);
  hashes_.push_back(hash);
  return static_cast<uint32_t>(preds_.size() - 1);
}

void PredicateAlphabet::CompileProgram(const Predicate& p,
                                       std::vector<Instr>* prog) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      prog->push_back({Instr::kTrue, 0});
      return;
    case Predicate::Kind::kCompare:
      prog->push_back({Instr::kLeaf, InternLeaf(p)});
      return;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      CompileProgram(*p.left(), prog);
      CompileProgram(*p.right(), prog);
      prog->push_back(
          {p.kind() == Predicate::Kind::kAnd ? Instr::kAnd : Instr::kOr, 0});
      return;
    case Predicate::Kind::kNot:
      CompileProgram(*p.left(), prog);
      prog->push_back({Instr::kNot, 0});
      return;
  }
}

void PredicateAlphabet::Seal() {
  if (sealed_) return;
  prog_begin_.reserve(preds_.size() + 1);
  for (const PredicateRef& pred : preds_) {
    prog_begin_.push_back(static_cast<uint32_t>(code_.size()));
    CompileProgram(*pred, &code_);
  }
  prog_begin_.push_back(static_cast<uint32_t>(code_.size()));
  sealed_ = true;
  AQUA_OBS_COUNT("pattern.alphabet_preds", preds_.size());
}

void PredicateAlphabet::Gather(const StoreView& store, const Oid* oids,
                               size_t n, AlphabetScratch* s) const {
  s->cols.resize(attrs_.size());
  for (auto& col : s->cols) {
    col.tag.assign(n, AlphabetScratch::kNone);
    col.i64.resize(n);
    col.f64.resize(n);
    col.str.resize(n);
    col.b.resize(n);
    col.ref.resize(n);
  }
  if (!store.valid()) return;
  const Schema& schema = store.schema();

  for (size_t i = 0; i < n; ++i) {
    Result<const Object*> obj = store.Get(oids[i]);
    if (!obj.ok()) continue;
    for (size_t c = 0; c < attrs_.size(); ++c) {
      const Value* found = (*obj)->FindAttr(schema, attrs_[c]);
      if (found == nullptr) continue;
      const Value& v = *found;
      AlphabetScratch::Column& col = s->cols[c];
      switch (v.type()) {
        case ValueType::kNull:
          break;  // Eval treats null exactly like absent: false.
        case ValueType::kInt:
          col.tag[i] = AlphabetScratch::kInt;
          col.i64[i] = v.int_value();
          break;
        case ValueType::kDouble:
          col.tag[i] = AlphabetScratch::kDouble;
          col.f64[i] = v.double_value();
          break;
        case ValueType::kString:
          col.tag[i] = AlphabetScratch::kString;
          col.str[i] = &v.string_value();
          break;
        case ValueType::kBool:
          col.tag[i] = AlphabetScratch::kBool;
          col.b[i] = v.bool_value() ? 1 : 0;
          break;
        case ValueType::kRef:
          col.tag[i] = AlphabetScratch::kRef;
          col.ref[i] = v.ref_value().value;
          break;
      }
    }
  }
}

// One leaf comparison over a gathered column, mirroring `Predicate::Eval`
// exactly: absent/null values are false; == / != go through
// `Value::Equals` (numeric coercion, int-int exact); ordered operators go
// through `Value::Compare` (incomparable families are false, and ties —
// including NaN "ties", where neither a<b nor a>b — satisfy <= and >=).
// The constant's type is hoisted out of the loop, so each case is a tight
// per-item pass over the struct-of-arrays scratch.
void PredicateAlphabet::EvalLeaf(const Leaf& leaf,
                                 const AlphabetScratch::Column& col,
                                 size_t n, uint8_t* out) const {
  const Value& c = leaf.constant;
  const uint8_t* tag = col.tag.data();
  const int64_t* i64 = col.i64.data();
  const double* f64 = col.f64.data();
  const std::string* const* str = col.str.data();
  const uint8_t* b = col.b.data();
  const uint64_t* ref = col.ref.data();
  const CmpOp op = leaf.op;

  // Equality verdict per item for the Eq/Ne paths.
  auto emit_eq = [&](auto eq) {
    if (op == CmpOp::kEq) {
      for (size_t i = 0; i < n; ++i) out[i] = eq(i);
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<uint8_t>(tag[i] != AlphabetScratch::kNone &&
                                      !eq(i));
      }
    }
  };
  // Three-way verdict per item for the ordered paths: `cmp` yields
  // {-1,0,1}; `valid` gates incomparable items to false.
  auto emit_ord = [&](auto valid, auto cmp) {
    switch (op) {
      case CmpOp::kLt:
        for (size_t i = 0; i < n; ++i)
          out[i] = static_cast<uint8_t>(valid(i) && cmp(i) < 0);
        return;
      case CmpOp::kLe:
        for (size_t i = 0; i < n; ++i)
          out[i] = static_cast<uint8_t>(valid(i) && cmp(i) <= 0);
        return;
      case CmpOp::kGt:
        for (size_t i = 0; i < n; ++i)
          out[i] = static_cast<uint8_t>(valid(i) && cmp(i) > 0);
        return;
      case CmpOp::kGe:
        for (size_t i = 0; i < n; ++i)
          out[i] = static_cast<uint8_t>(valid(i) && cmp(i) >= 0);
        return;
      default:
        return;
    }
  };
  const bool ordered = op != CmpOp::kEq && op != CmpOp::kNe;

  switch (c.type()) {
    case ValueType::kInt: {
      const int64_t ci = c.int_value();
      const double cd = static_cast<double>(ci);
      if (!ordered) {
        emit_eq([&](size_t i) -> uint8_t {
          return tag[i] == AlphabetScratch::kInt    ? i64[i] == ci
                 : tag[i] == AlphabetScratch::kDouble ? f64[i] == cd
                                                      : 0;
        });
      } else {
        emit_ord(
            [&](size_t i) {
              return tag[i] == AlphabetScratch::kInt ||
                     tag[i] == AlphabetScratch::kDouble;
            },
            [&](size_t i) -> int {
              if (tag[i] == AlphabetScratch::kInt) {
                return i64[i] < ci ? -1 : (i64[i] > ci ? 1 : 0);
              }
              return f64[i] < cd ? -1 : (f64[i] > cd ? 1 : 0);
            });
      }
      return;
    }
    case ValueType::kDouble: {
      const double cd = c.double_value();
      auto widened = [&](size_t i) {
        return tag[i] == AlphabetScratch::kInt ? static_cast<double>(i64[i])
                                               : f64[i];
      };
      if (!ordered) {
        emit_eq([&](size_t i) -> uint8_t {
          return (tag[i] == AlphabetScratch::kInt ||
                  tag[i] == AlphabetScratch::kDouble) &&
                 widened(i) == cd;
        });
      } else {
        emit_ord(
            [&](size_t i) {
              return tag[i] == AlphabetScratch::kInt ||
                     tag[i] == AlphabetScratch::kDouble;
            },
            [&](size_t i) -> int {
              double a = widened(i);
              return a < cd ? -1 : (a > cd ? 1 : 0);
            });
      }
      return;
    }
    case ValueType::kString: {
      const std::string& cs = c.string_value();
      if (!ordered) {
        emit_eq([&](size_t i) -> uint8_t {
          return tag[i] == AlphabetScratch::kString && *str[i] == cs;
        });
      } else {
        emit_ord(
            [&](size_t i) { return tag[i] == AlphabetScratch::kString; },
            [&](size_t i) -> int {
              int r = str[i]->compare(cs);
              return r < 0 ? -1 : (r > 0 ? 1 : 0);
            });
      }
      return;
    }
    case ValueType::kBool: {
      const uint8_t cb = c.bool_value() ? 1 : 0;
      if (!ordered) {
        emit_eq([&](size_t i) -> uint8_t {
          return tag[i] == AlphabetScratch::kBool && b[i] == cb;
        });
      } else {
        emit_ord([&](size_t i) { return tag[i] == AlphabetScratch::kBool; },
                 [&](size_t i) -> int { return b[i] - cb; });
      }
      return;
    }
    case ValueType::kRef: {
      const uint64_t cr = c.ref_value().value;
      if (!ordered) {
        emit_eq([&](size_t i) -> uint8_t {
          return tag[i] == AlphabetScratch::kRef && ref[i] == cr;
        });
      } else {
        emit_ord([&](size_t i) { return tag[i] == AlphabetScratch::kRef; },
                 [&](size_t i) -> int {
                   return ref[i] < cr ? -1 : (ref[i] > cr ? 1 : 0);
                 });
      }
      return;
    }
    case ValueType::kNull: {
      // A present value never Equals null and always Compares above it.
      if (!ordered) {
        if (op == CmpOp::kEq) {
          std::memset(out, 0, n);
        } else {
          for (size_t i = 0; i < n; ++i) {
            out[i] =
                static_cast<uint8_t>(tag[i] != AlphabetScratch::kNone);
          }
        }
      } else {
        emit_ord([&](size_t i) { return tag[i] != AlphabetScratch::kNone; },
                 [&](size_t) -> int { return 1; });
      }
      return;
    }
  }
}

void PredicateAlphabet::EvalBatch(const StoreView& store, const Oid* oids,
                                  size_t n, AlphabetScratch* s) const {
  const size_t stride = sig_stride();
  s->sigs.assign(n * stride, 0);
  if (n == 0 || preds_.empty()) return;
  Gather(store, oids, n, s);

  s->leaf_sat.resize(leaves_.size());
  for (size_t l = 0; l < leaves_.size(); ++l) {
    s->leaf_sat[l].resize(n);
    EvalLeaf(leaves_[l], s->cols[leaves_[l].attr_col], n,
             s->leaf_sat[l].data());
  }

  for (size_t p = 0; p < preds_.size(); ++p) {
    const Instr* prog = code_.data() + prog_begin_[p];
    const Instr* prog_end = code_.data() + prog_begin_[p + 1];
    const uint8_t* result = nullptr;
    if (prog_end - prog == 1 && prog[0].op == Instr::kLeaf) {
      result = s->leaf_sat[prog[0].arg].data();  // alias, no copy
    } else {
      size_t top = 0;  // stack height
      auto push = [&]() -> std::vector<uint8_t>& {
        if (s->stack.size() < ++top) s->stack.resize(top);
        s->stack[top - 1].resize(n);
        return s->stack[top - 1];
      };
      for (const Instr* ins = prog; ins != prog_end; ++ins) {
        switch (ins->op) {
          case Instr::kLeaf: {
            std::vector<uint8_t>& dst = push();
            std::memcpy(dst.data(), s->leaf_sat[ins->arg].data(), n);
            break;
          }
          case Instr::kTrue: {
            std::vector<uint8_t>& dst = push();
            std::memset(dst.data(), 1, n);
            break;
          }
          case Instr::kAnd: {
            uint8_t* bb = s->stack[--top].data();
            uint8_t* aa = s->stack[top - 1].data();
            for (size_t i = 0; i < n; ++i) aa[i] &= bb[i];
            break;
          }
          case Instr::kOr: {
            uint8_t* bb = s->stack[--top].data();
            uint8_t* aa = s->stack[top - 1].data();
            for (size_t i = 0; i < n; ++i) aa[i] |= bb[i];
            break;
          }
          case Instr::kNot: {
            uint8_t* aa = s->stack[top - 1].data();
            for (size_t i = 0; i < n; ++i) aa[i] ^= 1;
            break;
          }
        }
      }
      result = s->stack[0].data();
    }
    const size_t word = p >> 6;
    const uint64_t bit = 1ULL << (p & 63);
    uint64_t* sigs = s->sigs.data() + word;
    for (size_t i = 0; i < n; ++i) {
      if (result[i]) sigs[i * stride] |= bit;
    }
  }
}

}  // namespace aqua
