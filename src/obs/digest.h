#ifndef AQUA_OBS_DIGEST_H_
#define AQUA_OBS_DIGEST_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "query/plan.h"

namespace aqua::obs {

/// FNV-1a over `s` (the digest fingerprint hash).
uint64_t Fnv1a(std::string_view s);

/// Renders `plan` in a normalized form suitable for digest keying: the
/// operator tree, collection names, and pattern/predicate *shapes* are
/// kept; every comparison constant is elided to `$` (à la
/// pg_stat_statements), so `{age > 60}` and `{age > 21}` normalize — and
/// therefore digest — identically, while `{age > $}` vs `{name == $}` stay
/// distinct.
std::string NormalizePlan(const PlanRef& plan);

/// `Fnv1a(NormalizePlan(plan))`.
uint64_t FingerprintPlan(const PlanRef& plan);

/// A fingerprint as the 16 lowercase hex digits every surface prints.
std::string FingerprintHex(uint64_t fp);

/// Estimates the `q`-quantile (0 < q < 1) of a sample set summarized by
/// log-scale bucket counts (the 65-bucket scheme of `Histogram`): finds the
/// bucket holding the target rank and interpolates linearly inside its
/// value range. By construction the estimate lands inside the correct
/// bucket, i.e. within one power of two of the exact sample quantile.
double EstimateQuantile(const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
                        uint64_t count, double q);

/// The plan catalogue (obs/stats.h), which holds the per-plan-shape
/// latency digests.
class StatsWarehouse;
using DigestTable = StatsWarehouse;

}  // namespace aqua::obs

#endif  // AQUA_OBS_DIGEST_H_
