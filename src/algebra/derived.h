#ifndef AQUA_ALGEBRA_DERIVED_H_
#define AQUA_ALGEBRA_DERIVED_H_

#include "common/result.h"
#include "algebra/list_ops.h"
#include "algebra/tree_ops.h"
#include "index/attribute_index.h"

namespace aqua {

// Reference implementations of the derived operators, written exactly as §4
// defines them in terms of the primitive `split`:
//
//   sub_select(tp)(T) = split(tp, λ(a,b,c) b ∘_{α1..αn} [])(T)
//   all_anc(tp,f)(T)  = apply(λa f(1(a),2(a)))(split(tp, λ(a,b,c)⟨a, b∘[]⟩)(T))
//   all_desc(tp,f)(T) = apply(λa f(1(a),2(a)))(split(tp, λ(a,b,c)⟨b, c⟩)(T))
//
// They must agree with the direct implementations in `tree_ops.h`; the test
// suite cross-checks them and `bench_derived_ops` measures the cost of the
// generality.

Result<Datum> TreeSubSelectViaSplit(const StoreView& store, const Tree& tree,
                                    const TreePatternRef& tp,
                                    const SplitOptions& opts = {});

Result<Datum> TreeAllAncViaSplit(const StoreView& store, const Tree& tree,
                                 const TreePatternRef& tp, const AncFn& fn,
                                 const SplitOptions& opts = {});

Result<Datum> TreeAllDescViaSplit(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp, const DescFn& fn,
                                  const SplitOptions& opts = {});

/// Extracts the alphabet-predicate constraining the *root* of a pattern
/// (descending through anchors and concatenations), the decomposition
/// anchor used by the §4 rewrite. Fails when the root is unconstrained
/// (`?`, a point, a closure, or a disjunction).
Result<PredicateRef> ExtractRootPredicate(const TreePatternRef& tp);

/// The §4 "Why Split?" rewrite, executed literally:
///
///   apply(sub_select(⊤tp))(split(anchor, λ(x,y,z) y ∘_{αi} z)(T))
///
/// The anchor nodes come from `index` (probing the pattern's root
/// predicate); each anchored subtree is materialized and searched with a
/// root-anchored `sub_select`.
Result<Datum> TreeSubSelectSplitRewrite(const StoreView& store,
                                        const Tree& tree,
                                        const TreePatternRef& tp,
                                        const AttributeIndex& index,
                                        const SplitOptions& opts = {});

/// The fused physical form of the same rewrite: probe the index for
/// candidate roots (in document order) and run the matcher only there,
/// materializing nothing (`TreeSubSelectAtRoots`).
Result<Datum> TreeSubSelectIndexed(const StoreView& store, const Tree& tree,
                                   const TreePatternRef& tp,
                                   const AttributeIndex& index,
                                   const SplitOptions& opts = {});

// ---------------------------------------------------------------------------
// The list analogue of the decomposition (companion-paper [31] territory):
// when a list pattern *begins* with a mandatory alphabet-predicate, an
// attribute index over the list yields the only candidate match starts.

/// Extracts the alphabet-predicate that every match's first element must
/// satisfy (descending through concatenation, `+`, and `!`). NotFound when
/// the head is unconstrained (`?`, `*`-led, disjunction, or a point).
Result<PredicateRef> ExtractHeadPredicate(const ListPatternRef& lp);

/// Index-anchored list sub_select: probes `index` with the pattern's head
/// predicate and attempts matches only at candidate positions
/// (`ListSubSelectAtBegins`). Agrees with `ListSubSelect` whenever the head
/// predicate is extractable.
Result<Datum> ListSubSelectIndexed(const StoreView& store, const List& list,
                                   const AnchoredListPattern& pattern,
                                   const AttributeIndex& index,
                                   const ListSplitOptions& opts = {});

}  // namespace aqua

#endif  // AQUA_ALGEBRA_DERIVED_H_
