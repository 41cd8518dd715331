#ifndef AQUA_PATTERN_REGEX_ENGINE_H_
#define AQUA_PATTERN_REGEX_ENGINE_H_

#include "common/build.h"
#include "common/function_ref.h"
#include "pattern/list_pattern.h"

namespace aqua {

/// Continuation invoked with the position reached after a (partial) match.
/// Non-owning: a continuation is only ever invoked during the call that
/// receives it (each engine step passes a lambda down the stack), so nothing
/// needs to own it and building one never allocates.
using RegexCont = FunctionRef<void(size_t)>;

/// Backtracking interpreter for the `ListPattern` regular-expression
/// structure, parameterized over how *atoms* are matched.
///
/// The engine handles the structural kinds (`kConcat`, `kAlt`, `kStar`,
/// `kPlus`, `kPrune`) and delegates every atom kind (`kPred`, `kAny`,
/// `kPoint`, `kTreeAtom`) to `atom`, which must invoke the continuation once
/// per way the atom can match starting at `pos` (typically `cont(pos + 1)`
/// after consuming one element; a pattern concatenation point may consume
/// zero). The `pruned` flag is true inside a `!` scope (§3.4): elements
/// consumed there are pruned from results and become cut pieces.
///
/// `kStar`/`kPlus` iterations are required to consume at least one element,
/// which keeps nullable-body closures from looping forever without changing
/// the recognized language.
///
/// All derivations are enumerated (the caller deduplicates results); the
/// engine itself is linear in pattern size per derivation step but may
/// explore exponentially many derivations for ambiguous patterns — the
/// paper's footnote 3 acknowledges this, and `pattern/multi.h` provides the
/// efficient boolean path.
///
/// Continuation passing makes a derivation as deep on the stack as it is
/// long: every consumed element nests one more `Run` per level of pattern
/// structure around its atom. `max_depth` bounds that nesting, counted in
/// `depth`, which the caller owns: the tree matcher runs one engine per
/// children sequence inside its own node recursion (and inside other
/// engines' atoms), so all of them spend one shared budget. A `Run` past
/// it explores nothing, sets `too_deep()`, and every later `Run` returns at
/// once so the whole search unwinds.
template <typename AtomMatcher>
class RegexEngine {
 public:
  RegexEngine(const AtomMatcher& atom, size_t max_depth, size_t& depth)
      : atom_(atom), max_depth_(max_depth), depth_(depth) {}

  bool too_deep() const { return too_deep_; }

  void Run(const ListPattern* p, size_t pos, bool pruned, RegexCont cont) {
    if (too_deep_) return;
    if (depth_ >= max_depth_) {
      too_deep_ = true;
      return;
    }
    ++depth_;
    Step(p, pos, pruned, cont);
    --depth_;
  }

 private:
  void Step(const ListPattern* p, size_t pos, bool pruned, RegexCont cont) {
    switch (p->kind()) {
      case ListPattern::Kind::kConcat:
        RunSeq(p->parts(), 0, pos, pruned, cont);
        return;
      case ListPattern::Kind::kAlt: {
        for (const auto& alt : p->parts()) {
          Run(alt.get(), pos, pruned, cont);
        }
        return;
      }
      case ListPattern::Kind::kStar:
        RunStar(p->inner().get(), pos, pruned, cont);
        return;
      case ListPattern::Kind::kPlus: {
        const ListPattern* body = p->inner().get();
        Run(body, pos, pruned, [this, body, pruned, &cont](size_t next) {
          RunStar(body, next, pruned, cont);
        });
        return;
      }
      case ListPattern::Kind::kPrune:
        Run(p->inner().get(), pos, /*pruned=*/true, cont);
        return;
      case ListPattern::Kind::kPred:
      case ListPattern::Kind::kAny:
      case ListPattern::Kind::kPoint:
      case ListPattern::Kind::kTreeAtom:
        atom_(*p, pos, pruned, cont);
        return;
    }
  }

  void RunSeq(const std::vector<ListPatternRef>& parts, size_t i, size_t pos,
              bool pruned, RegexCont cont) {
    if (i == parts.size()) {
      cont(pos);
      return;
    }
    Run(parts[i].get(), pos, pruned,
        [this, &parts, i, pruned, &cont](size_t next) {
          RunSeq(parts, i + 1, next, pruned, cont);
        });
  }

  void RunStar(const ListPattern* body, size_t pos, bool pruned,
               RegexCont cont) {
    cont(pos);
    Run(body, pos, pruned, [this, body, pos, pruned, &cont](size_t next) {
      if (next > pos) RunStar(body, next, pruned, cont);
    });
  }

  const AtomMatcher& atom_;
  const size_t max_depth_;
  size_t& depth_;
  bool too_deep_ = false;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_REGEX_ENGINE_H_
