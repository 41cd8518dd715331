#ifndef AQUA_OBS_OBS_H_
#define AQUA_OBS_OBS_H_

/// \file
/// Umbrella header for `aqua::obs`, the cross-cutting observability layer:
///
///  * metrics.h  — named counters, gauges + log-scale histograms in a
///    process-wide registry (`AQUA_OBS_COUNT` / `AQUA_OBS_RECORD` /
///    `AQUA_OBS_GAUGE_*` instrumentation macros, snapshots, JSON)
///  * trace.h    — RAII `Span` scoped timers forming a span tree per unit
///    of work, exportable as Chrome-trace JSON or an indented text report
///  * recorder.h — always-on flight recorder (per-thread lock-free event
///    rings) + the slow-query log
///  * digest.h   — plan normalization + fingerprints, log-bucket latency
///    quantile estimates
///  * export.h   — OpenMetrics text exposition + the embedded scrape
///    endpoint (`MetricsHttpServer`)
///  * stats.h    — the plan catalogue: one row per plan fingerprint with
///    its latency digest and per-op observed cardinalities, plus the
///    learned selectivities fed back into the cost model
///  * json.h     — the minimal JSON writer the above share
///
/// See docs/OBSERVABILITY.md for the metric naming scheme and how the
/// counters map onto the paper's §4 cost-model terms.

#include "obs/digest.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/stats.h"
#include "obs/trace.h"

#endif  // AQUA_OBS_OBS_H_
