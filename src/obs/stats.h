#ifndef AQUA_OBS_STATS_H_
#define AQUA_OBS_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/digest.h"
#include "obs/metrics.h"

namespace aqua::obs {

/// One physical operator's record from one `Execute`, harvested by
/// `exec::CollectOpSamples` after the run: the executor sums these into
/// `ExecStats`, renders EXPLAIN ANALYZE from them and the catalogue folds
/// them. Plain data: the exec layer produces these, so `obs` never has to
/// see an exec header.
struct OpSample {
  /// `PlanOpToString` result — static storage, never freed.
  const char* op_name = "";
  /// Stable op path from the root by child index: "0", "0.0", "0.1.2", ...
  std::string path;
  /// `FingerprintPlan` of the subplan rooted at this op — the key the cost
  /// model can recompute for any candidate subplan during rewriting.
  uint64_t node_fp = 0;
  /// The logical node the op was compiled from (EXPLAIN ANALYZE sums the
  /// ops of one node). Valid only while the executed plan is alive; the
  /// catalogue never reads it.
  const PlanNode* node = nullptr;
  uint64_t calls = 0;
  /// Observed input cardinality (sum of the children's outputs; for leaf
  /// scans the rows scanned; for indexed probes the candidate count).
  uint64_t in_rows = 0;
  /// Observed output cardinality of the last call.
  uint64_t out_rows = 0;
  /// Estimated bytes of the last output (`exec::ApproxDatumBytes`).
  uint64_t out_bytes = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  /// Index probes and candidates returned (indexed ops only, else 0).
  uint64_t probes = 0;
  uint64_t candidates = 0;
  /// Tree / list items the op's fan-out evaluated; a batched group counts
  /// each item once per member plan.
  uint64_t trees = 0;
  uint64_t lists = 0;
};

/// One operator's EWMA-smoothed record inside a `PlanRow`.
struct OpStatsRow {
  std::string path;         ///< stable op path within the plan
  std::string op_name;
  uint64_t node_fp = 0;     ///< fingerprint of the subplan at this op
  uint64_t calls = 0;       ///< harvests folded into this record (confidence)
  double in_rows = 0;       ///< EWMA-smoothed observations
  double out_rows = 0;
  double wall_ns = 0;
  double cpu_ns = 0;
  /// EWMA of out_rows / max(in_rows, 1) per harvest.
  double selectivity = 0;
  /// EWMA of candidates / probes per harvest; < 0 when never observed
  /// (the op is not an index probe).
  double candidates_per_probe = -1;
};

/// One row of the plan catalogue: the digest columns of one plan shape
/// plus its per-op records, as copied out by `Rows` / `Row`.
struct PlanRow {
  uint64_t fingerprint = 0;
  std::string text;  ///< normalized plan (first-seen rendering)
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  /// Largest per-query peak-memory estimate seen for this shape.
  uint64_t peak_mem_bytes = 0;
  /// Executions that ended kCancelled / kDeadlineExceeded.
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  /// Executions that committed a new store version (advanced the epoch).
  uint64_t store_commits = 0;
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  /// Per-op EWMA records, in preorder of their op paths.
  std::vector<OpStatsRow> ops;

  double mean_ns() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(calls);
  }
  double p50_ns() const { return EstimateQuantile(buckets, calls, 0.50); }
  double p95_ns() const { return EstimateQuantile(buckets, calls, 0.95); }
  double p99_ns() const { return EstimateQuantile(buckets, calls, 0.99); }
  /// `text` on one line: `op [params] > child [params] > ...`.
  std::string OneLineText() const;
};

/// The process-wide plan catalogue: one row per normalized-plan
/// fingerprint (the pg_stat_statements idea applied to AQUA plans). A row
/// accumulates the shape's latency digest (calls, total/min/max, a
/// 65-bucket latency histogram, peak memory, outcome counts) and the
/// EWMA-smoothed per-operator cardinalities, candidates-per-probe and
/// wall/CPU time harvested from each `Execute`.
///
/// Beside the rows sits a learned index keyed by *subplan* fingerprint
/// (`LearnedSelectivity` / `LearnedCandidates`): this is what the cost
/// model queries during rewriting, where a candidate subplan is estimated
/// outside the context of any particular root plan. The catalogue is
/// optimizer state, so every build compiles and feeds it, whether or not
/// the instrumentation is compiled in or enabled.
///
/// Bounded: past `capacity()` plan rows (4096) recording a new fingerprint
/// evicts the least-recently-updated row; the learned index is held to
/// the same number of entries the same way.
class StatsWarehouse {
 public:
  /// EWMA smoothing factor: each harvest contributes 20%, so a record
  /// decays an obsolete observation below 1% influence in ~21 harvests.
  static constexpr double kAlpha = 0.2;

  /// Harvests folded into a record before the cost model trusts it over
  /// the static default (see `CostModel`).
  static constexpr uint64_t kMinConfidence = 2;

  static constexpr size_t kDefaultCapacity = 4096;

  /// A standalone catalogue (tests) holding at most `capacity` plan rows.
  explicit StatsWarehouse(size_t capacity = kDefaultCapacity);

  static StatsWarehouse& Global();

  /// Accumulates one execution of the plan shape `fingerprint` (whose
  /// normalized rendering is `text` — stored on first sight) that took
  /// `wall_ns`, peaked at `mem_peak_bytes` of estimated live data, and
  /// finished with `code` (kCancelled / kDeadlineExceeded bump the
  /// outcome counts); `store_commit` marks an execution that committed a
  /// new store version. `ops` are the run's per-op samples, folded into
  /// the row's op records and the learned index. One mutex acquisition;
  /// bumps `stats.harvests` (when `ops` is non-empty) / `stats.evictions`
  /// and maintains the `stats.records_live` gauge (plan rows).
  void Record(uint64_t fingerprint, std::string_view text, uint64_t wall_ns,
              uint64_t mem_peak_bytes = 0, StatusCode code = StatusCode::kOk,
              bool store_commit = false,
              const std::vector<OpSample>& ops = {}) AQUA_EXCLUDES(mu_);

  /// Learned selectivity (EWMA of out/in) for the subplan fingerprint
  /// `node_fp`; false when the catalogue has never seen it. `calls` gets
  /// the record's confidence (harvest count).
  bool LearnedSelectivity(uint64_t node_fp, double* selectivity,
                          uint64_t* calls) const AQUA_EXCLUDES(mu_);

  /// Learned candidates-per-probe for the subplan fingerprint `node_fp`
  /// (index probes only); false when never observed.
  bool LearnedCandidates(uint64_t node_fp, double* candidates_per_probe,
                         uint64_t* calls) const AQUA_EXCLUDES(mu_);

  /// Copies the rows out, sorted by total time descending.
  std::vector<PlanRow> Rows() const AQUA_EXCLUDES(mu_);

  /// The row for `fingerprint`; calls == 0 and no ops when absent.
  PlanRow Row(uint64_t fingerprint) const AQUA_EXCLUDES(mu_);

  /// `{"plans":[{...,"ops":[...]}...]}`, sorted by total time descending.
  std::string ToJson(size_t max_rows = 256) const;

  /// Writes every row and learned entry as an `aqua-stats v2` text file
  /// (format documented in docs/OBSERVABILITY.md) so benches and daemons
  /// warm up across runs.
  Status Save(const std::string& path) const AQUA_EXCLUDES(mu_);
  /// Merges `Save` output (v2, or v1 op records only) into this catalogue:
  /// each plan in the file replaces the row of the same fingerprint,
  /// unrelated rows are kept. All or nothing: a file that fails to parse
  /// leaves the catalogue unchanged.
  Status Load(const std::string& path) AQUA_EXCLUDES(mu_);

  void Reset() AQUA_EXCLUDES(mu_);
  /// Plan rows held.
  size_t size() const AQUA_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  struct Learned {
    uint64_t calls = 0;
    double selectivity = 0;
    double candidates_per_probe = -1;
    uint64_t last_update_seq = 0;
  };
  struct Entry {
    PlanRow row;
    /// `update_seq_` at the last update — the eviction recency key.
    uint64_t last_update_seq = 0;
  };

  void FoldSampleLocked(PlanRow* row, const OpSample& s, uint64_t seq)
      AQUA_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::map<uint64_t, Entry> rows_ AQUA_GUARDED_BY(mu_);
  std::map<uint64_t, Learned> learned_ AQUA_GUARDED_BY(mu_);
  uint64_t update_seq_ AQUA_GUARDED_BY(mu_) = 0;
};

/// `Global().Save(path)`; an empty `path` resolves `AQUA_STATS_FILE`
/// (InvalidArgument when neither names a file).
Status SaveStats(const std::string& path = "");
/// `Global().Load(path)`; an empty `path` resolves `AQUA_STATS_FILE`.
Status LoadStats(const std::string& path = "");

}  // namespace aqua::obs

#endif  // AQUA_OBS_STATS_H_
