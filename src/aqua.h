#ifndef AQUA_AQUA_H_
#define AQUA_AQUA_H_

/// \file
/// Umbrella header for the AQUA list/tree query algebra library — a
/// reproduction of Subramanian, Leung, Vandenberg & Zdonik, "The AQUA
/// Approach to Querying Lists and Trees in Object-Oriented Databases"
/// (ICDE 1995).
///
/// Layers (bottom-up):
///  * common/    — Status/Result error model, dynamic `Value`s
///  * obs/       — metrics registry + tracing (counters, spans, JSON)
///  * object/    — the object model: schema, objects with identity, store
///  * bulk/      — ordered bulk types: List, Tree, concatenation points
///  * pattern/   — alphabet-predicates, list & tree patterns, matchers
///  * algebra/   — the operators: select, apply, split, sub_select, ...
///  * index/     — attribute indexes (the §4 access method)
///  * query/     — plan IR, cost model, rewrite rules, executor
///  * workload/  — deterministic synthetic data generators

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

#include "obs/obs.h"

#include "object/object.h"
#include "object/object_store.h"
#include "object/schema.h"

#include "bulk/concat.h"
#include "bulk/datum.h"
#include "bulk/list.h"
#include "bulk/node.h"
#include "bulk/notation.h"
#include "bulk/tree.h"

#include "pattern/list_matcher.h"
#include "pattern/list_pattern.h"
#include "pattern/multi.h"
#include "pattern/pattern_parser.h"
#include "pattern/predicate.h"
#include "pattern/predicate_parser.h"
#include "pattern/simplify.h"
#include "pattern/tree_matcher.h"
#include "pattern/tree_pattern.h"

#include "algebra/derived.h"
#include "algebra/fold.h"
#include "algebra/list_ops.h"
#include "algebra/set_ops.h"
#include "algebra/structural.h"
#include "algebra/tree_ops.h"

#include "approx/approx_ops.h"
#include "approx/tree_edit_distance.h"

#include "lint/absint.h"
#include "lint/diagnostic.h"
#include "lint/effects.h"
#include "lint/interval.h"
#include "lint/lint.h"
#include "lint/pattern_lint.h"

#include "odmg/array.h"

#include "storage/dump.h"

#include "index/attribute_index.h"
#include "index/index_manager.h"

#include "query/builder.h"
#include "query/cost.h"
#include "query/database.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/rewriter.h"
#include "query/rules.h"
#include "query/validate.h"

#include "workload/generators.h"

#endif  // AQUA_AQUA_H_
