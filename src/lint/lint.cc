#include "lint/lint.h"

#include <atomic>
#include <cstdlib>
#include <utility>

#include "lint/absint.h"
#include "lint/interval.h"
#include "obs/metrics.h"
#include "query/validate.h"

namespace aqua::lint {

namespace {

/// -1 = no programmatic override; else static_cast<int>(Level).
std::atomic<int> g_level_override{-1};

bool IsTreePatternOp(PlanOp op) {
  switch (op) {
    case PlanOp::kTreeSelect:
    case PlanOp::kTreeApply:
    case PlanOp::kTreeSubSelect:
    case PlanOp::kTreeSplit:
    case PlanOp::kTreeAllAnc:
    case PlanOp::kTreeAllDesc:
      return true;
    default:
      return false;
  }
}

bool IsListPatternOp(PlanOp op) {
  switch (op) {
    case PlanOp::kListSelect:
    case PlanOp::kListApply:
    case PlanOp::kListSubSelect:
    case PlanOp::kListSplit:
    case PlanOp::kListAllAnc:
    case PlanOp::kListAllDesc:
      return true;
    default:
      return false;
  }
}

class PlanLinter {
 public:
  PlanLinter(const Database& db, const PlanLintOptions& opts,
             std::vector<Diagnostic>* out)
      : db_(db), opts_(opts), out_(out), stored_attrs_(db) {}

  void Walk(const PlanRef& node) {
    if (node == nullptr) return;
    LintNode(node);
    for (const PlanRef& child : node->children) Walk(child);
  }

 private:
  void Emit(const char* context, DiagCode code, std::string msg,
            SourceSpan span = {}) {
    Diagnostic d;
    d.code = code;
    d.severity = DefaultSeverity(code);
    d.message = std::move(msg);
    d.span = span;
    d.source = opts_.pattern_source;
    d.context = context;
    out_->push_back(std::move(d));
  }

  void CheckCollection(const char* ctx, const PlanNode& node,
                       bool wants_tree) {
    const std::string& name = node.collection;
    bool is_tree = db_.HasTree(name);
    bool is_list = db_.HasList(name);
    if (!is_tree && !is_list) {
      Emit(ctx, DiagCode::kUnknownCollection,
           "unknown collection '" + name + "'");
      return;
    }
    if (wants_tree && !is_tree) {
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "operator requires a tree collection but '" + name +
               "' is a list collection");
    } else if (!wants_tree && !is_list) {
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "operator requires a list collection but '" + name +
               "' is a tree collection");
    }
  }

  void CheckIndexedOp(const char* ctx, const PlanNode& node) {
    if (node.attr.empty()) {
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "indexed operator has no indexed attribute");
    } else if (!db_.indexes().Has(node.collection, node.attr)) {
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "no index on " + node.collection + "." + node.attr +
               ": the probe cannot run");
    }
    if (node.anchor == nullptr) {
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "indexed operator has no anchor predicate to probe with");
    } else if (node.anchor->kind() != Predicate::Kind::kCompare ||
               node.anchor->attr() != node.attr) {
      // The equality parameters of the §4 split-anchor rewrite must agree:
      // the probe predicate reads exactly the indexed attribute.
      Emit(ctx, DiagCode::kOperatorParamMismatch,
           "anchor predicate " + node.anchor->ToString() +
               " is not a comparison on the indexed attribute '" + node.attr +
               "'",
           node.anchor->span());
    }
  }

  void LintNode(const PlanRef& node) {
    const char* ctx = PlanOpToString(node->op);
    switch (node->op) {
      case PlanOp::kScanTree:
      case PlanOp::kIndexedSubSelect:
        CheckCollection(ctx, *node, /*wants_tree=*/true);
        break;
      case PlanOp::kScanList:
      case PlanOp::kIndexedListSubSelect:
        CheckCollection(ctx, *node, /*wants_tree=*/false);
        break;
      default:
        break;
    }
    if (node->op == PlanOp::kIndexedSubSelect ||
        node->op == PlanOp::kIndexedListSubSelect) {
      CheckIndexedOp(ctx, *node);
    }

    // Operators over the wrong scan kind: the executor rejects a list datum
    // fed to a tree operator (and vice versa) at runtime; flag it now.
    for (const PlanRef& child : node->children) {
      if (child == nullptr) continue;
      if (IsTreePatternOp(node->op) && child->op == PlanOp::kScanList) {
        Emit(ctx, DiagCode::kOperatorParamMismatch,
             "tree operator consumes the list scan of '" + child->collection +
                 "'");
      } else if (IsListPatternOp(node->op) &&
                 child->op == PlanOp::kScanTree) {
        Emit(ctx, DiagCode::kOperatorParamMismatch,
             "list operator consumes the tree scan of '" + child->collection +
                 "'");
      }
    }

    if (node->pred != nullptr &&
        AnalyzePredicateSat(node->pred) == PredSat::kUnsatisfiable) {
      Emit(ctx, DiagCode::kContradictoryPredicate,
           "select predicate " + node->pred->ToString() +
               " is unsatisfiable: it is false for every object",
           node->pred->span());
      Emit(ctx, DiagCode::kEmptyOperator,
           "select keeps nothing: its predicate is unsatisfiable (the "
           "rewriter folds this operator to an empty result)");
    }
    if (node->anchor != nullptr &&
        AnalyzePredicateSat(node->anchor) == PredSat::kUnsatisfiable) {
      Emit(ctx, DiagCode::kContradictoryPredicate,
           "anchor predicate " + node->anchor->ToString() +
               " is unsatisfiable: it is false for every object",
           node->anchor->span());
      Emit(ctx, DiagCode::kEmptyOperator,
           "index probe can never produce candidates");
    }

    PatternLintOptions popts;
    popts.source = opts_.pattern_source;
    popts.query_level = true;
    if (node->tpattern != nullptr) {
      for (Diagnostic& d : LintTreePattern(node->tpattern, popts)) {
        d.context = ctx;
        out_->push_back(std::move(d));
      }
      if (TreePatternProvablyEmpty(node->tpattern)) {
        Emit(ctx, DiagCode::kEmptyOperator,
             "pattern operator provably yields no result: its tree pattern "
             "matches nothing (the rewriter folds this operator to an empty "
             "result)");
      }
    }
    if (node->lpattern.body != nullptr) {
      for (Diagnostic& d : LintListPattern(node->lpattern, popts)) {
        d.context = ctx;
        out_->push_back(std::move(d));
      }
      if (ListPatternProvablyEmpty(node->lpattern.body)) {
        Emit(ctx, DiagCode::kEmptyOperator,
             "pattern operator provably yields no result: its list pattern "
             "matches nothing (the rewriter folds this operator to an empty "
             "result)");
      }
    }

    // §3.1, footnote 2: stored-attribute-only predicates.
    for (Diagnostic& d : stored_attrs_.NodeViolations(*node)) {
      d.context = ctx;
      d.source = opts_.pattern_source;
      out_->push_back(std::move(d));
    }
  }

  const Database& db_;
  const PlanLintOptions& opts_;
  std::vector<Diagnostic>* out_;
  StoredAttrChecker stored_attrs_;
};

}  // namespace

const char* LevelToString(Level level) {
  switch (level) {
    case Level::kOff:
      return "off";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
  }
  return "warn";
}

bool ParseLevel(const std::string& text, Level* out) {
  if (text == "off") {
    *out = Level::kOff;
  } else if (text == "warn") {
    *out = Level::kWarn;
  } else if (text == "error") {
    *out = Level::kError;
  } else {
    return false;
  }
  return true;
}

Level EnforcementLevel() {
  int override = g_level_override.load(std::memory_order_relaxed);
  if (override >= 0) return static_cast<Level>(override);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; the knob is
  // fixed at process start and the override above is the mutable path.
  if (const char* env = std::getenv("AQUA_LINT")) {
    Level level;
    if (ParseLevel(env, &level)) return level;
  }
  return Level::kWarn;
}

void set_enforcement_level(Level level) {
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::vector<Diagnostic> LintPlan(const Database& db, const PlanRef& plan,
                                 const PlanLintOptions& opts) {
  std::vector<Diagnostic> out;
  PlanLinter(db, opts, &out).Walk(plan);
  if (opts.absint) {
    AbsIntResult facts = AnalyzePlan(db, plan, opts.pattern_source);
    for (Diagnostic& d : facts.diags) out.push_back(std::move(d));
  }
  AQUA_OBS_COUNT("lint.diag_emitted", out.size());
#ifndef AQUA_OBS_DISABLED
  if (obs::Registry::enabled()) {
    for (const Diagnostic& d : out) {
      obs::Registry::Global()
          .GetCounter(std::string("lint.diag.") + DiagCodeId(d.code))
          ->Add(1);
    }
  }
#endif
  return out;
}

}  // namespace aqua::lint
