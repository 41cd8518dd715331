// Shared declarations of the repository benchmark (see README.md): the
// request model, the workloads and the runner that drives requests
// through the engine's public query path.
#ifndef AQUA_PERFBENCH_PERFBENCH_H_
#define AQUA_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua::perfbench {

/// `kTiny` shrinks every collection for the smoke test; the timed
/// workloads always run at `kFull`.
enum class Scale { kFull, kTiny };

/// The plan a request's text is wrapped in.
enum class Shape {
  kTreeScan,  ///< sub_select(scan(coll), tp)
  kForest,    ///< sub_select(select(scan(coll), citizen != "none"), tp)
  kListScan,  ///< sub_select(scan(coll), lp)
  kWrite,     ///< apply(scan(coll), set_attr(age = value))
  kBatch,     ///< ExecuteBatch over a tree group and a list group
};

/// How a workload's results are checked before timing.
enum class Oracle {
  kUnoptimized,  ///< optimized result == unoptimized plan's result (§4)
  kSerial,       ///< result at the workload's threads == result at 1 thread
  kStandalone,   ///< each batch member == its standalone Execute
};

struct Request {
  Shape shape = Shape::kTreeScan;
  std::string collection;
  /// Pattern text: one per request; kBatch holds one per member of its
  /// tree group (patterns over the forest).
  std::vector<std::string> texts;
  /// kBatch: one per member of its list group (patterns over the song).
  std::vector<std::string> list_texts;
  /// Template name for the per-template latency report ("p0", "a3", ...).
  std::string tmpl;
  /// kWrite: the value written to `age`.
  int64_t age = 0;
};

/// One workload: its distinct requests and the seeded, fixed order in
/// which the closed loop sends them (cycling).
struct Workload {
  std::string name;
  size_t threads = 1;
  /// Oracle of every non-batch request (batch requests are always checked
  /// against their members' standalone results).
  Oracle oracle = Oracle::kUnoptimized;
  std::vector<Request> requests;
  std::vector<uint32_t> order;  ///< indices into `requests`
};

/// Builds `name`'s database into `db` (the timed set-up: object creation,
/// collection registration, index builds).
Status BuildDatabase(const std::string& name, uint64_t seed, Scale scale,
                     Database* db);

/// The workload's thread count, oracle, requests and order. Deterministic
/// in (`seed`, `scale`); reads nothing from the database.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              Scale scale);

/// The predicate of the forest shape's select (drops the sentinel root).
PredicateRef ForestSelectPredicate();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end run; true: the traced per-layer run.
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string git_sha = "unknown";
};

/// Builds, checks, warms up and times one workload; prints the run record
/// and, as the last line of stdout, the result JSON. Returns the process
/// exit code (0 unless set-up failed or a steadiness guard tripped).
int RunBenchmark(const RunOptions& opts);

}  // namespace aqua::perfbench

#endif  // AQUA_PERFBENCH_PERFBENCH_H_
