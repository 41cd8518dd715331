#include "obs/digest.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace aqua::obs {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// --- normalized rendering -------------------------------------------------
// Mirrors the ToString renderings of Predicate / ListPattern / TreePattern
// with every comparison constant replaced by `$`, so the digest key captures
// the *shape* of a query, not its parameters.

std::string NormPred(const PredicateRef& pred);

std::string NormPredBody(const PredicateRef& pred) {
  if (pred == nullptr) return "?";
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return "?";
    case Predicate::Kind::kCompare:
      return pred->attr() + " " + CmpOpToString(pred->op()) + " $";
    case Predicate::Kind::kAnd:
      return "(" + NormPredBody(pred->left()) + " && " +
             NormPredBody(pred->right()) + ")";
    case Predicate::Kind::kOr:
      return "(" + NormPredBody(pred->left()) + " || " +
             NormPredBody(pred->right()) + ")";
    case Predicate::Kind::kNot:
      return "!(" + NormPredBody(pred->left()) + ")";
  }
  return "?";
}

std::string NormPred(const PredicateRef& pred) {
  if (pred == nullptr || pred->kind() == Predicate::Kind::kTrue) return "?";
  return "{" + NormPredBody(pred) + "}";
}

std::string NormTree(const TreePatternRef& tp);

std::string NormList(const ListPatternRef& lp) {
  if (lp == nullptr) return "";
  switch (lp->kind()) {
    case ListPattern::Kind::kPred:
      return NormPred(lp->pred());
    case ListPattern::Kind::kAny:
      return "?";
    case ListPattern::Kind::kConcat: {
      std::string out;
      for (size_t i = 0; i < lp->parts().size(); ++i) {
        if (i > 0) out += ' ';
        out += NormList(lp->parts()[i]);
      }
      return out;
    }
    case ListPattern::Kind::kAlt: {
      std::string out = "(";
      for (size_t i = 0; i < lp->parts().size(); ++i) {
        if (i > 0) out += " | ";
        out += NormList(lp->parts()[i]);
      }
      return out + ")";
    }
    case ListPattern::Kind::kStar:
      return "(" + NormList(lp->inner()) + ")*";
    case ListPattern::Kind::kPlus:
      return "(" + NormList(lp->inner()) + ")+";
    case ListPattern::Kind::kPrune:
      return "!(" + NormList(lp->inner()) + ")";
    case ListPattern::Kind::kPoint:
      return "@" + lp->label();
    case ListPattern::Kind::kTreeAtom:
      return NormTree(lp->tree_atom());
  }
  return "?";
}

std::string NormTree(const TreePatternRef& tp) {
  if (tp == nullptr) return "";
  switch (tp->kind()) {
    case TreePattern::Kind::kLeaf:
      return NormPred(tp->pred());
    case TreePattern::Kind::kNode:
      return NormPred(tp->pred()) + "(" + NormList(tp->children()) + ")";
    case TreePattern::Kind::kPoint:
      return "@" + tp->label();
    case TreePattern::Kind::kAlt: {
      std::string out = "[[";
      for (size_t i = 0; i < tp->alts().size(); ++i) {
        if (i > 0) out += " | ";
        out += NormTree(tp->alts()[i]);
      }
      return out + "]]";
    }
    case TreePattern::Kind::kConcatAt:
      return "[[" + NormTree(tp->first()) + " .@" + tp->label() + " " +
             NormTree(tp->second()) + "]]";
    case TreePattern::Kind::kStarAt:
      return "[[" + NormTree(tp->inner()) + "]]*@" + tp->label();
    case TreePattern::Kind::kPlusAt:
      return "[[" + NormTree(tp->inner()) + "]]+@" + tp->label();
    case TreePattern::Kind::kRootAnchor:
      return "^" + NormTree(tp->inner());
    case TreePattern::Kind::kLeafAnchor:
      return "[[" + NormTree(tp->inner()) + "]]$";
    case TreePattern::Kind::kPrune:
      return "!" + NormTree(tp->inner());
  }
  return "?";
}

/// Function-expression shape with constants elided: `const#12` and update
/// values normalize to `$`, guards go through `NormPred`.
std::string NormFnExpr(const FnExprRef& e) {
  if (e == nullptr) return "id";
  switch (e->kind()) {
    case FnExpr::Kind::kIdentity:
      return "id";
    case FnExpr::Kind::kConst:
      return "const#$";
    case FnExpr::Kind::kChoose:
      return "choose(" + NormPred(e->guard()) + ", " +
             NormFnExpr(e->then_expr()) + ", " + NormFnExpr(e->else_expr()) +
             ")";
    case FnExpr::Kind::kUpdate:
    case FnExpr::Kind::kSetAttr: {
      std::string out =
          e->kind() == FnExpr::Kind::kUpdate ? "update(" : "set_attr(";
      for (size_t i = 0; i < e->sets().size(); ++i) {
        if (i > 0) out += ", ";
        out += e->sets()[i].attr + "=$";
      }
      return out + ")";
    }
    case FnExpr::Kind::kCompose:
      return NormFnExpr(e->outer()) + " . " + NormFnExpr(e->inner());
  }
  return "?";
}

std::string NormAnchoredList(const AnchoredListPattern& lp) {
  std::string out;
  if (lp.anchor_begin) out += '^';
  out += NormList(lp.body);
  if (lp.anchor_end) out += '$';
  return out;
}

void NormalizeNode(const PlanRef& node, size_t indent, std::string* out) {
  out->append(indent * 2, ' ');
  if (node == nullptr) {
    *out += "(null)\n";
    return;
  }
  *out += PlanOpToString(node->op);
  std::vector<std::string> params;
  if (!node->collection.empty()) params.push_back(node->collection);
  if (!node->attr.empty()) params.push_back("index=" + node->attr);
  if (node->pred != nullptr) {
    params.push_back("pred=" + NormPred(node->pred));
  }
  if (node->anchor != nullptr) {
    params.push_back("anchor=" + NormPred(node->anchor));
  }
  if (node->tpattern != nullptr) {
    params.push_back("pattern=" + NormTree(node->tpattern));
  }
  if (node->lpattern.body != nullptr) {
    params.push_back("pattern=" + NormAnchoredList(node->lpattern));
  }
  if (node->fn_expr != nullptr) {
    params.push_back("fn=" + NormFnExpr(node->fn_expr));
  }
  if (!params.empty()) {
    *out += " [";
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += params[i];
    }
    *out += "]";
  }
  *out += '\n';
  for (const PlanRef& child : node->children) {
    NormalizeNode(child, indent + 1, out);
  }
}

}  // namespace

std::string NormalizePlan(const PlanRef& plan) {
  std::string out;
  NormalizeNode(plan, 0, &out);
  return out;
}

uint64_t FingerprintPlan(const PlanRef& plan) {
  return Fnv1a(NormalizePlan(plan));
}

std::string FingerprintHex(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

double EstimateQuantile(
    const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
    uint64_t count, double q) {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank in [1, count]; the quantile is the value of the rank-th
  // smallest sample.
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t cum = 0;
  double last_upper = 0.0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    uint64_t c = buckets[b];
    if (c == 0) continue;
    // Integer value range of bucket b: {0}, {1}, then [2^(b-1), 2^b - 1].
    double lower = b <= 1 ? static_cast<double>(b)
                          : std::ldexp(1.0, static_cast<int>(b) - 1);
    double upper = b <= 1 ? static_cast<double>(b)
                          : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
    last_upper = upper;
    if (static_cast<double>(cum + c) >= rank) {
      // Interpolate by rank position inside the bucket.
      double pos = (rank - static_cast<double>(cum)) / static_cast<double>(c);
      return lower + pos * (upper - lower);
    }
    cum += c;
  }
  return last_upper;
}

}  // namespace aqua::obs
