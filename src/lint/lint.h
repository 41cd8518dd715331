#ifndef AQUA_LINT_LINT_H_
#define AQUA_LINT_LINT_H_

#include <string>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/pattern_lint.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua::lint {

struct PlanLintOptions {
  /// Source text of the pattern/predicate parameters, when the plan was
  /// built from one piece of text (the shell's case); rendered under carets.
  std::string pattern_source;
  /// Run the abstract-interpretation pass (AQL013–AQL019) on top of the
  /// base checks. On by default; tests that want only the base findings
  /// turn it off.
  bool absint = true;
};

/// How much the lint pass is allowed to interfere with execution:
///
///  * `kOff`   — plans are not linted before execution at all;
///  * `kWarn`  — findings are surfaced (the shell banner) but never block;
///  * `kError` — the executor refuses to run a plan carrying any
///               error-severity diagnostic.
enum class Level { kOff, kWarn, kError };

const char* LevelToString(Level level);

/// Parses `"off"` / `"warn"` / `"error"` (anything else: no value).
bool ParseLevel(const std::string& text, Level* out);

/// The process-wide enforcement level: the programmatic override when one
/// was set, else the `AQUA_LINT` environment variable, else `kWarn`.
Level EnforcementLevel();

/// Programmatic override of the enforcement level (the shell's
/// `\lint level` command). Takes precedence over the environment.
void set_enforcement_level(Level level);

/// True when `diags` holds any error-severity finding (what `kError`
/// refuses to execute).
bool HasErrors(const std::vector<Diagnostic>& diags);

/// The static-analysis pass between parse and execute: walks the plan and
/// emits every pattern-, predicate-, and plan-level finding.
///
/// Plan-level checks (the `LintPlan` extension of `ValidatePlanPatterns`):
///  * AQL012 — scans naming collections the database does not have;
///  * AQL010 — equality-parameter mismatches across operators: tree
///    operators fed by list scans (and vice versa), indexed operators whose
///    anchor predicate is not a comparison on the indexed attribute or
///    whose index does not exist;
///  * AQL009 — operators that provably yield no result (unsatisfiable
///    select predicates, empty pattern languages, dead index probes);
///  * AQL011 — alphabet-predicates reading computed attributes (§3.1,
///    footnote 2), via `StoredAttrChecker`;
///  * plus every pattern-level finding (AQL001–AQL008) from
///    `LintListPattern` / `LintTreePattern`, tagged with the operator name;
///  * plus, when `opts.absint` (the default), the abstract-interpretation
///    findings AQL013–AQL019 from `lint/absint.h` — kind-flow mismatches,
///    empty flows, tautological selects, degenerate applies, and the
///    effect pass's serial-apply notes.
///
/// Emits `lint.diag_emitted` and per-code `lint.diag.AQLnnn` obs counters.
std::vector<Diagnostic> LintPlan(const Database& db, const PlanRef& plan,
                                 const PlanLintOptions& opts = {});

}  // namespace aqua::lint

namespace aqua {

/// Builder-level convenience: `Lint(db, plan)` with default options.
inline std::vector<lint::Diagnostic> Lint(const Database& db,
                                          const PlanRef& plan) {
  return lint::LintPlan(db, plan);
}

}  // namespace aqua

#endif  // AQUA_LINT_LINT_H_
