// The benchmark runner: drives a workload's requests through the same
// public calls a user's query takes (parse -> lint::LintPlan ->
// Rewriter::Optimize -> Executor::Execute, or Executor::ExecuteBatch for
// standing groups), checks every result, and reports the end-to-end or
// the per-layer metrics.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algebra/fn_expr.h"
#include "lint/lint.h"
#include "obs/digest.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "pattern/pattern_parser.h"
#include "perfbench.h"
#include "query/builder.h"
#include "query/executor.h"
#include "query/rewriter.h"

namespace aqua::perfbench {

namespace {

// The timed phase runs in kRounds rounds. Each round starts by building
// the database afresh, repeatedly until the round's builds have taken
// kSetupShare of its timed slice, and serves from the last build. So the
// set-up samples, like the requests, come from the whole run and not from
// its first seconds: the host's speed changes over stretches of seconds.
// setup_s is the median build of each round, averaged over the rounds:
// slow rounds fit fewer builds, so a median over all builds would jump
// between the fast and the slow rounds' values.
constexpr size_t kRounds = 10;
constexpr double kSetupShare = 0.05;
constexpr size_t kMaxWarmPasses = 6;
constexpr size_t kSampleReserve = size_t{1} << 20;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool IsIndexed(const PlanRef& plan) {
  if (plan == nullptr) return false;
  if (plan->op == PlanOp::kIndexedSubSelect ||
      plan->op == PlanOp::kIndexedListSubSelect) {
    return true;
  }
  for (const PlanRef& c : plan->children) {
    if (IsIndexed(c)) return true;
  }
  return false;
}

/// Nearest-rank percentile of an ascending vector, in ms.
double PercentileMs(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The registry counters the traced run reads, summed over its requests.
const char* const kCounters[] = {
    "pattern.tree_steps",  "pattern.list_steps",   "pattern.dfa_hits",
    "pattern.dfa_misses",  "pattern.alphabet_preds", "pattern.tree_match_calls",
    "cost.learned_hits",   "cost.learned_misses",  "index.probes",
    "index.candidates",    "exec.tasks_run",       "exec.batch_scan_rows"};

/// Per-op self time is reported for these physical op kinds (every kind
/// the workloads compile to).
const char* const kOpKinds[] = {
    "ScanTree",      "ScanList",         "TreeSelect",
    "TreeSubSelect", "ListSubSelect",    "IndexedSubSelect",
    "IndexedListSubSelect", "TreeApply"};

/// Layer timings of one traced request.
struct LayerSample {
  uint64_t parse_ns = 0;
  uint64_t lint_ns = 0;
  uint64_t optimize_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t execute_cpu_ns = 0;
  /// Duration of the executor's root "Execute" span (0 when it recorded
  /// none, as on the batch path).
  uint64_t root_span_ns = 0;
  std::map<std::string, uint64_t> self_ns;
};

struct Outcome {
  Status status = Status::OK();
  std::vector<Datum> results;
  PlanRef optimized;  ///< null on the batch path
};

/// Sums over the requests of one traced phase.
struct LayerTotals {
  size_t requests = 0;
  uint64_t parse_ns = 0, lint_ns = 0, optimize_ns = 0, execute_ns = 0;
  uint64_t execute_cpu_ns = 0;
  uint64_t overhead_ns = 0;
  size_t with_root_span = 0;
  /// Over the requests with a root span: parse + lint + optimize + root
  /// span, and their request wall.
  uint64_t spanned_ns = 0, spanned_request_ns = 0;
  std::map<std::string, uint64_t> self_ns;
  std::map<std::string, uint64_t> counters;
  size_t executes = 0;  ///< non-batch requests (ExecStats valid)
  uint64_t mem_peak_bytes = 0;
  size_t indexed = 0;
  uint64_t indexed_results = 0;
  uint64_t indexed_candidates = 0;
  uint64_t gate_passes = 0, gate_pairs = 0;
  size_t writes = 0;
  uint64_t write_ns = 0;
};

/// The requests of one kind of phase (untraced or traced), summed over the
/// rounds.
struct PhaseResult {
  std::vector<uint64_t> latencies;  ///< ns, one per request
  std::vector<uint16_t> templates;  ///< template id, one per request
  /// End of each round's requests in `latencies`.
  std::vector<size_t> round_ends;
  size_t failed = 0;
  uint64_t elapsed_ns = 0;  ///< wall of the phase minus result checks
  uint64_t cpu_ns = 0;      ///< process CPU of the phase minus checks
  LayerTotals layers;
};

std::string TemplateOf(const Request& r) {
  static const char* const kShape[] = {"tree", "forest", "list", "write",
                                       "batch"};
  return std::string(kShape[static_cast<int>(r.shape)]) + "#" + r.tmpl;
}

class Runner {
 public:
  Runner(Database* db, const Workload& w)
      : w_(w), forest_pred_(ForestSelectPredicate()) {
    Rebind(db);
    for (const Request& r : w.requests) {
      std::string name = TemplateOf(r);
      auto it = std::find(template_names_.begin(), template_names_.end(),
                          name);
      template_of_.push_back(
          static_cast<uint16_t>(it - template_names_.begin()));
      if (it == template_names_.end()) template_names_.push_back(name);
    }
  }

  /// Serves from `db`, a fresh build of the same database (the same seed
  /// gives the same oids, so the references stay valid), with a new
  /// executor. Writes are checked against the database they went to.
  void Rebind(Database* db) {
    db_ = db;
    exec_ = std::make_unique<Executor>(db);
    exec_->set_threads(w_.threads);
    last_age_.clear();
  }

  /// Parses the standing batch groups (once, outside any timing) and
  /// computes the untimed reference result of every request.
  Status Prepare() {
    standing_.resize(w_.requests.size());
    refs_.resize(w_.requests.size());
    PlanRef forest = Q::TreeSelect(Q::ScanTree("family"), forest_pred_);
    PlanRef tune = Q::ScanList("tune");
    for (size_t i = 0; i < w_.requests.size(); ++i) {
      const Request& r = w_.requests[i];
      if (r.shape != Shape::kBatch) continue;
      for (const std::string& text : r.texts) {
        AQUA_ASSIGN_OR_RETURN(TreePatternRef tp, ParseTreePattern(text));
        standing_[i].push_back(Q::TreeSubSelect(forest, tp));
      }
      for (const std::string& text : r.list_texts) {
        AQUA_ASSIGN_OR_RETURN(AnchoredListPattern lp, ParseListPattern(text));
        standing_[i].push_back(Q::ListSubSelect(tune, lp));
      }
      if (forest_items_ == 0) {
        AQUA_ASSIGN_OR_RETURN(Datum items, exec_->Execute(forest));
        forest_items_ = items.size();
      }
    }
    Executor serial(db_);
    serial.set_threads(1);
    for (size_t i = 0; i < w_.requests.size(); ++i) {
      const Request& r = w_.requests[i];
      if (r.shape == Shape::kWrite) continue;
      const Oracle oracle =
          r.shape == Shape::kBatch ? Oracle::kStandalone : w_.oracle;
      switch (oracle) {
        case Oracle::kUnoptimized: {
          AQUA_ASSIGN_OR_RETURN(PlanRef plan, BuildPlan(r));
          AQUA_ASSIGN_OR_RETURN(Datum d, exec_->Execute(plan));
          refs_[i].push_back(std::move(d));
          break;
        }
        case Oracle::kSerial: {
          AQUA_ASSIGN_OR_RETURN(PlanRef plan, BuildPlan(r));
          AQUA_ASSIGN_OR_RETURN(PlanRef opt, Optimize(plan));
          AQUA_ASSIGN_OR_RETURN(Datum d, serial.Execute(opt));
          refs_[i].push_back(std::move(d));
          break;
        }
        case Oracle::kStandalone:
          for (const PlanRef& p : standing_[i]) {
            AQUA_ASSIGN_OR_RETURN(Datum d, exec_->Execute(p));
            refs_[i].push_back(std::move(d));
          }
          break;
      }
    }
    return Status::OK();
  }

  /// Runs every request once per pass until every request's optimized
  /// plan is stable across a pass and backed by learned statistics of at
  /// least `StatsWarehouse::kMinConfidence` harvests (at least two
  /// passes). Every result is checked against its reference. Returns
  /// false when that has not happened after kMaxWarmPasses passes;
  /// `*passes` receives the passes run.
  bool WarmUp(size_t* passes) {
    expected_fp_.assign(w_.requests.size(), 0);
    for (size_t pass = 0; pass < kMaxWarmPasses; ++pass) {
      *passes = pass + 1;
      bool changed = false;
      for (size_t i = 0; i < w_.requests.size(); ++i) {
        uint64_t epoch0 = db_->store().epoch();
        Outcome out = Run(i, nullptr);
        uint64_t epoch1 = db_->store().epoch();
        if (!Check(i, out, epoch0, epoch1)) ++warm_failed_;
        if (out.optimized != nullptr) {
          uint64_t fp = obs::FingerprintPlan(out.optimized);
          if (fp != expected_fp_[i]) changed = true;
          expected_fp_[i] = fp;
        }
      }
      if (pass >= 1 && !changed && Confident()) return true;
    }
    return false;
  }

  /// One closed-loop phase of `seconds`, continuing the order where the
  /// previous phase stopped, appended to `*out` as one round. Traced phases
  /// also record span trees and registry deltas per request.
  void Phase(double seconds, bool traced, PhaseResult* out) {
    PhaseResult& res = *out;
    exec_->set_trace_enabled(traced);
    const ObjectStore& store = db_->store();
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    uint64_t check_ns = 0;
    uint64_t cow0 = store.cow_copies();
    uint64_t start = NowNs();
    uint64_t cpu_start = ProcessCpuNs();
    while (NowNs() - start < budget) {
      const size_t i = w_.order[pos_];
      pos_ = (pos_ + 1) % w_.order.size();
      const Request& r = w_.requests[i];
      LayerSample sample;
      obs::Snapshot before;
      if (traced) before = obs::Registry::Global().Snap();
      uint64_t epoch0 = store.epoch();
      uint64_t t0 = NowNs();
      Outcome out = Run(i, traced ? &sample : nullptr);
      uint64_t lat = NowNs() - t0;
      uint64_t epoch1 = store.epoch();
      if (traced) {
        Accumulate(r, out, sample, lat,
                   obs::Registry::Global().Snap().DeltaSince(before),
                   &res.layers);
      }
      uint64_t c0 = NowNs();
      bool ok = Check(i, out, epoch0, epoch1);
      if (ok && out.optimized != nullptr &&
          obs::FingerprintPlan(out.optimized) != expected_fp_[i]) {
        ++plan_flips_;
      }
      check_ns += NowNs() - c0;
      if (!ok) ++res.failed;
      res.latencies.push_back(lat);
      res.templates.push_back(template_of_[i]);
    }
    res.elapsed_ns += NowNs() - start - check_ns;
    // Checks run on the query thread alone, so their CPU is their wall.
    uint64_t cpu = ProcessCpuNs() - cpu_start;
    res.cpu_ns += cpu > check_ns ? cpu - check_ns : 0;
    res.layers.counters["store.cow_copies"] += store.cow_copies() - cow0;
    res.round_ends.push_back(res.latencies.size());
    exec_->set_trace_enabled(false);
  }

  /// Checks the final `age` of every written document against the last
  /// value written to it; returns the number of mismatching documents.
  size_t CheckFinalAges() const {
    size_t bad = 0;
    for (const auto& [coll, age] : last_age_) {
      Result<const Tree*> tree = db_->GetTree(coll);
      if (!tree.ok()) {
        ++bad;
        continue;
      }
      for (NodeId n : (*tree)->Preorder()) {
        const NodePayload& p = (*tree)->payload(n);
        if (!p.is_cell()) continue;
        Result<Value> v = db_->store().GetAttr(p.oid(), "age");
        if (!v.ok() || !v->is_int() || v->int_value() != age) {
          std::fprintf(stderr, "perfbench: %s: final age mismatch\n",
                       coll.c_str());
          ++bad;
          break;
        }
      }
    }
    return bad;
  }

  size_t warm_failed() const { return warm_failed_; }
  size_t plan_flips() const { return plan_flips_; }
  const std::vector<std::string>& template_names() const {
    return template_names_;
  }

 private:
  Result<PlanRef> BuildPlan(const Request& r) const {
    switch (r.shape) {
      case Shape::kTreeScan:
      case Shape::kForest: {
        AQUA_ASSIGN_OR_RETURN(TreePatternRef tp, ParseTreePattern(r.texts[0]));
        PlanRef input = Q::ScanTree(r.collection);
        if (r.shape == Shape::kForest) {
          input = Q::TreeSelect(input, forest_pred_);
        }
        return Q::TreeSubSelect(input, tp);
      }
      case Shape::kListScan: {
        AQUA_ASSIGN_OR_RETURN(AnchoredListPattern lp,
                              ParseListPattern(r.texts[0]));
        return Q::ListSubSelect(Q::ScanList(r.collection), lp);
      }
      case Shape::kWrite:
        return Q::TreeApplyExpr(
            Q::ScanTree(r.collection),
            FnExpr::SetAttr({{"age", Value::Int(r.age)}}));
      case Shape::kBatch:
        break;
    }
    return Status::Internal("batch requests have no single plan");
  }

  Result<PlanRef> Optimize(const PlanRef& plan) const {
    Rewriter rewriter(db_, &obs::StatsWarehouse::Global());
    rewriter.AddDefaultRules();
    return rewriter.Optimize(plan);
  }

  /// One request through the public query path. `layers` (traced runs)
  /// receives the time spent in each layer call.
  Outcome Run(size_t i, LayerSample* layers) {
    const Request& r = w_.requests[i];
    Outcome out;
    if (r.shape == Shape::kBatch) {
      uint64_t t0 = NowNs();
      uint64_t c0 = layers != nullptr ? ProcessCpuNs() : 0;
      std::vector<Result<Datum>> rs = exec_->ExecuteBatch(standing_[i]);
      if (layers != nullptr) {
        layers->execute_cpu_ns = ProcessCpuNs() - c0;
        layers->execute_ns = NowNs() - t0;
      }
      for (Result<Datum>& d : rs) {
        if (!d.ok()) {
          out.status = d.status();
          return out;
        }
        out.results.push_back(*std::move(d));
      }
      return out;
    }
    uint64_t t0 = NowNs();
    Result<PlanRef> plan = BuildPlan(r);
    uint64_t t1 = NowNs();
    if (!plan.ok()) {
      out.status = plan.status();
      return out;
    }
    std::vector<lint::Diagnostic> diags = lint::LintPlan(*db_, *plan);
    uint64_t t2 = NowNs();
    if (lint::HasErrors(diags)) {
      out.status = Status::InvalidArgument("lint error in " + r.texts[0]);
      return out;
    }
    Result<PlanRef> opt = Optimize(*plan);
    uint64_t t3 = NowNs();
    if (!opt.ok()) {
      out.status = opt.status();
      return out;
    }
    uint64_t c0 = layers != nullptr ? ProcessCpuNs() : 0;
    Result<Datum> d = exec_->Execute(*opt);
    uint64_t t4 = NowNs();
    if (layers != nullptr) {
      layers->execute_cpu_ns = ProcessCpuNs() - c0;
      layers->parse_ns = t1 - t0;
      layers->lint_ns = t2 - t1;
      layers->optimize_ns = t3 - t2;
      layers->execute_ns = t4 - t3;
      SelfTimes(exec_->trace(), layers);
    }
    out.optimized = *opt;
    if (!d.ok()) {
      out.status = d.status();
      return out;
    }
    out.results.push_back(*std::move(d));
    return out;
  }

  /// Root "Execute" span and per-op self time (span minus its op
  /// children; morsel spans run on helpers, overlap their parent and are
  /// not subtracted).
  static void SelfTimes(const obs::Trace& trace, LayerSample* layers) {
    const std::vector<obs::SpanRecord>& spans = trace.spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const obs::SpanRecord& s : spans) {
      if (s.parent != obs::SpanRecord::kNoParent && s.name != "Morsel") {
        child_ns[s.parent] += s.dur_ns;
      }
    }
    for (size_t k = 0; k < spans.size(); ++k) {
      const obs::SpanRecord& s = spans[k];
      if (s.name == "Morsel") continue;
      if (s.parent == obs::SpanRecord::kNoParent && s.name == "Execute") {
        layers->root_span_ns = s.dur_ns;
        continue;
      }
      layers->self_ns[s.name] +=
          s.dur_ns - std::min(child_ns[k], s.dur_ns);
    }
  }

  /// Compares one outcome with its reference; for writes, checks that the
  /// store epoch advanced by exactly one.
  bool Check(size_t i, const Outcome& out, uint64_t epoch0,
             uint64_t epoch1) {
    const Request& r = w_.requests[i];
    if (!out.status.ok()) {
      Report(r, out.status.ToString());
      return false;
    }
    if (r.shape == Shape::kWrite) {
      last_age_[r.collection] = r.age;
      if (epoch1 != epoch0 + 1) {
        Report(r, "write advanced the store epoch by " +
                      std::to_string(epoch1 - epoch0));
        return false;
      }
      return true;
    }
    const std::vector<Datum>& ref = refs_[i];
    if (out.results.size() != ref.size()) {
      Report(r, "result count differs from the reference");
      return false;
    }
    for (size_t j = 0; j < ref.size(); ++j) {
      if (!out.results[j].Equals(ref[j])) {
        Report(r, "result differs from the reference (member " +
                      std::to_string(j) + ")");
        return false;
      }
    }
    return true;
  }

  void Report(const Request& r, const std::string& what) {
    if (reports_++ < 5) {
      std::fprintf(stderr, "perfbench: FAILED %s %s: %s\n",
                   r.collection.c_str(),
                   r.texts.empty() ? "(write)" : r.texts[0].c_str(),
                   what.c_str());
    }
  }

  bool Confident() const {
    for (uint64_t fp : expected_fp_) {
      if (fp == 0) continue;
      double sel = 0;
      uint64_t calls = 0;
      if (!obs::StatsWarehouse::Global().LearnedSelectivity(fp, &sel,
                                                            &calls) ||
          calls < obs::StatsWarehouse::kMinConfidence) {
        return false;
      }
    }
    return true;
  }

  void Accumulate(const Request& r, const Outcome& out,
                  const LayerSample& s, uint64_t lat,
                  const obs::Snapshot& delta, LayerTotals* t) const {
    ++t->requests;
    t->parse_ns += s.parse_ns;
    t->lint_ns += s.lint_ns;
    t->optimize_ns += s.optimize_ns;
    t->execute_ns += s.execute_ns;
    t->execute_cpu_ns += s.execute_cpu_ns;
    if (s.root_span_ns > 0) {
      ++t->with_root_span;
      t->overhead_ns += s.execute_ns - std::min(s.root_span_ns, s.execute_ns);
      t->spanned_ns +=
          s.parse_ns + s.lint_ns + s.optimize_ns + s.root_span_ns;
      t->spanned_request_ns += lat;
    }
    for (const auto& [op, ns] : s.self_ns) t->self_ns[op] += ns;
    for (const char* name : kCounters) {
      t->counters[name] += delta.CounterValue(name);
    }
    if (r.shape == Shape::kWrite) {
      ++t->writes;
      t->write_ns += lat;
    }
    if (r.shape == Shape::kBatch) {
      // Tree group: the root-clause gate passes a (family, pattern) pair
      // exactly when the matcher runs on it.
      t->gate_passes += delta.CounterValue("pattern.tree_match_calls");
      t->gate_pairs += r.texts.size() * forest_items_;
      // List group (the results after the tree members): the merged
      // existence scan is exact, so a member passes exactly when it has a
      // match.
      for (size_t j = r.texts.size(); j < out.results.size(); ++j) {
        t->gate_passes += out.results[j].size() > 0;
      }
      t->gate_pairs += r.list_texts.size();
      return;
    }
    ++t->executes;
    t->mem_peak_bytes += exec_->stats().mem_peak_bytes;
    if (IsIndexed(out.optimized)) {
      ++t->indexed;
      for (const Datum& d : out.results) t->indexed_results += d.size();
      t->indexed_candidates += exec_->stats().index_candidates;
    }
  }

  Database* db_ = nullptr;
  const Workload& w_;
  std::unique_ptr<Executor> exec_;
  PredicateRef forest_pred_;
  std::vector<std::vector<PlanRef>> standing_;
  std::vector<std::vector<Datum>> refs_;
  std::vector<uint64_t> expected_fp_;
  std::vector<std::string> template_names_;
  std::vector<uint16_t> template_of_;  ///< per request
  std::map<std::string, int64_t> last_age_;
  size_t pos_ = 0;
  size_t forest_items_ = 0;
  size_t warm_failed_ = 0;
  size_t plan_flips_ = 0;
  size_t reports_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Round `r`'s latencies, ascending.
std::vector<uint64_t> SortedRound(const PhaseResult& p, size_t r) {
  const size_t begin = r == 0 ? 0 : p.round_ends[r - 1];
  std::vector<uint64_t> sorted(p.latencies.begin() + begin,
                               p.latencies.begin() + p.round_ends[r]);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// The `q` latency percentile of each round, averaged over the rounds, in
/// ms. A slow stretch of the host then moves it in proportion to its
/// length, as it moves qps. A percentile over the pooled requests of a
/// narrow cluster instead jumps to the slow value once slow stretches make
/// up the larger part of the cluster.
double RoundPercentileMs(const PhaseResult& p, double q) {
  double sum = 0;
  for (size_t r = 0; r < p.round_ends.size(); ++r) {
    sum += PercentileMs(SortedRound(p, r), q);
  }
  return Ratio(sum, static_cast<double>(p.round_ends.size()));
}

std::vector<Metric> EndToEnd(const PhaseResult& p, double setup_s) {
  const double n = static_cast<double>(p.latencies.size());
  return {{"setup_s", setup_s, "s"},
          {"qps", Ratio(n, static_cast<double>(p.elapsed_ns) / 1e9), "1/s"},
          {"latency_p50_ms", RoundPercentileMs(p, 0.50), "ms"},
          {"latency_p95_ms", RoundPercentileMs(p, 0.95), "ms"},
          {"cpu_ms_per_request",
           Ratio(static_cast<double>(p.cpu_ns) / 1e6, n), "ms"},
          {"peak_rss_mb", PeakRssMb(), "MB"}};
}

std::vector<Metric> PerLayer(const PhaseResult& untraced,
                             const PhaseResult& traced, const Database& db,
                             size_t plan_flips, size_t evictions) {
  const LayerTotals& t = traced.layers;
  const double n = static_cast<double>(t.requests);
  auto per_req_us = [&](uint64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, n);
  };
  auto counter = [&](const char* name) {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double p50_u = RoundPercentileMs(untraced, 0.5);
  const double p50_t = RoundPercentileMs(traced, 0.5);

  std::vector<Metric> m = {
      {"pattern.parse_us", per_req_us(t.parse_ns), "us"},
      {"pattern.tree_steps_per_req", Ratio(counter("pattern.tree_steps"), n),
       "count"},
      {"pattern.list_steps_per_req", Ratio(counter("pattern.list_steps"), n),
       "count"},
      {"pattern.dfa_hit_ratio",
       Ratio(counter("pattern.dfa_hits"),
             counter("pattern.dfa_hits") + counter("pattern.dfa_misses")),
       "ratio"},
      {"pattern.alphabet_preds_per_req",
       Ratio(counter("pattern.alphabet_preds"), n), "count"},
      {"lint.us", per_req_us(t.lint_ns), "us"},
      {"query.optimize_us", per_req_us(t.optimize_ns), "us"},
      {"query.indexed_share",
       Ratio(static_cast<double>(t.indexed), static_cast<double>(t.executes)),
       "ratio"},
      {"query.plan_flips", static_cast<double>(plan_flips), "count"},
      {"cost.learned_hit_ratio",
       Ratio(counter("cost.learned_hits"),
             counter("cost.learned_hits") + counter("cost.learned_misses")),
       "ratio"},
      {"index.candidates_per_probe",
       Ratio(counter("index.candidates"), counter("index.probes")), "count"},
      {"index.match_yield",
       Ratio(static_cast<double>(t.indexed_results),
             static_cast<double>(t.indexed_candidates)),
       "ratio"},
      {"exec.execute_us", per_req_us(t.execute_ns), "us"},
      {"exec.overhead_us",
       Ratio(static_cast<double>(t.overhead_ns) / 1e3,
             static_cast<double>(t.with_root_span)),
       "us"},
  };
  for (const char* op : kOpKinds) {
    auto it = t.self_ns.find(op);
    m.push_back({std::string("exec.self_us.") + op,
                 per_req_us(it == t.self_ns.end() ? 0 : it->second), "us"});
  }
  const ObjectStore& store = db.store();
  std::vector<Metric> rest = {
      {"exec.parallelism",
       Ratio(static_cast<double>(t.execute_cpu_ns),
             static_cast<double>(t.execute_ns)),
       "ratio"},
      {"exec.morsels_per_req", Ratio(counter("exec.tasks_run"), n), "count"},
      {"exec.batch_gate_pass_ratio",
       Ratio(static_cast<double>(t.gate_passes),
             static_cast<double>(t.gate_pairs)),
       "ratio"},
      {"exec.batch_scan_rows_per_req",
       Ratio(counter("exec.batch_scan_rows"), n), "count"},
      {"exec.mem_peak_kb",
       Ratio(static_cast<double>(t.mem_peak_bytes) / 1024.0,
             static_cast<double>(t.executes)),
       "KiB"},
      {"object.write_us",
       Ratio(static_cast<double>(t.write_ns) / 1e3,
             static_cast<double>(t.writes)),
       "us"},
      {"object.cow_copies_per_write",
       Ratio(counter("store.cow_copies"), static_cast<double>(t.writes)),
       "count"},
      {"object.retained_kb",
       static_cast<double>(store.retained_bytes()) / 1024.0, "KiB"},
      {"object.versions_live", static_cast<double>(store.versions_live()),
       "count"},
      {"obs.evictions", static_cast<double>(evictions), "count"},
      {"obs.trace_overhead_pct", Ratio(p50_t - p50_u, p50_u) * 100.0, "%"},
      {"obs.span_coverage_pct",
       Ratio(static_cast<double>(t.spanned_ns),
             static_cast<double>(t.spanned_request_ns)) *
           100.0,
       "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void PrintTemplates(const PhaseResult& p,
                    const std::vector<std::string>& names) {
  for (size_t t = 0; t < names.size(); ++t) {
    std::vector<uint64_t> sorted;
    for (size_t k = 0; k < p.latencies.size(); ++k) {
      if (p.templates[k] == t) sorted.push_back(p.latencies[k]);
    }
    std::sort(sorted.begin(), sorted.end());
    const std::string& name = names[t];
    std::printf("# template %-12s n=%zu p50_ms=%.4f p95_ms=%.4f\n",
                name.c_str(), sorted.size(), PercentileMs(sorted, 0.5),
                PercentileMs(sorted, 0.95));
  }
}

/// One record line per round: its median set-up, its request count, its
/// percentiles and how many requests lie beyond its p95, to show how the
/// host's speed moved during the run.
void PrintRounds(const PhaseResult& p, const std::vector<double>& round_setup) {
  for (size_t r = 0; r < p.round_ends.size(); ++r) {
    const std::vector<uint64_t> sorted = SortedRound(p, r);
    const size_t n = sorted.size();
    std::printf(
        "# round %zu setup_s=%.4f n=%zu p50_ms=%.4f p95_ms=%.4f "
        "beyond_p95=%zu\n",
        r, r < round_setup.size() ? round_setup[r] : 0.0, n,
        PercentileMs(sorted, 0.5), PercentileMs(sorted, 0.95),
        n - (n * 95 + 99) / 100);
  }
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t k = 0; k < metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name.c_str(),
                std::isfinite(metrics[k].value) ? metrics[k].value : 0.0,
                metrics[k].unit);
  }
  std::printf("}}\n");
}

/// Stats-warehouse evictions since the process started, plus one when the
/// digest table has reached its cap (it counts no evictions of its own;
/// below the cap it has never evicted). Read at the end of a run, so
/// evictions during references and warm-up count too.
size_t Evictions() {
  size_t n = obs::Registry::Global().Snap().CounterValue("stats.evictions");
  const obs::DigestTable& digests = obs::DigestTable::Global();
  if (digests.capacity() > 0 && digests.size() >= digests.capacity()) ++n;
  return n;
}

}  // namespace

int RunBenchmark(const RunOptions& opts) {
  Result<Workload> made = MakeWorkload(opts.workload, opts.seed, opts.scale);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *made;

  // Set-up of one round: builds the database until the round's builds
  // have taken their share of its slice (at least once) and keeps the last.
  const double slice_s = opts.seconds / kRounds;
  std::vector<double> round_setup;  ///< median build of each round
  size_t setup_reps = 0;
  std::unique_ptr<Database> db;
  auto set_up = [&]() -> Status {
    std::vector<double> builds;
    double spent = 0;
    do {
      db.reset();
      db = std::make_unique<Database>();
      uint64_t t0 = NowNs();
      Status st = BuildDatabase(w.name, opts.seed, opts.scale, db.get());
      builds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      spent += builds.back();
      if (!st.ok()) return st;
    } while (spent < kSetupShare * slice_s);
    setup_reps += builds.size();
    round_setup.push_back(Median(std::move(builds)));
    return Status::OK();
  };
  if (Status st = set_up(); !st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  Runner runner(db.get(), w);
  if (Status st = runner.Prepare(); !st.ok()) {
    std::fprintf(stderr, "perfbench: reference computation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  size_t warm_passes = 0;
  const bool warmed = runner.WarmUp(&warm_passes);

  // Untraced then traced halves of every round in the traced run; their
  // p50 difference is the cost of the tracing itself.
  PhaseResult untraced, traced;
  for (PhaseResult* p : {&untraced, &traced}) {
    // Reserved up front so that growing the sample buffers neither copies
    // them mid-run nor doubles their footprint in peak_rss_mb.
    p->latencies.reserve(kSampleReserve);
    p->templates.reserve(kSampleReserve);
  }
  for (size_t round = 0; round < kRounds; ++round) {
    if (round > 0) {
      if (Status st = set_up(); !st.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      runner.Rebind(db.get());
    }
    if (opts.trace) {
      runner.Phase(slice_s / 2, false, &untraced);
      runner.Phase(slice_s / 2, true, &traced);
    } else {
      runner.Phase(slice_s, false, &untraced);
    }
  }
  double setup_s = 0;
  for (double s : round_setup) setup_s += s;
  setup_s /= static_cast<double>(round_setup.size());

  std::printf(
      "# aqua_perfbench workload=%s seed=%llu scale=%s trace=%d nproc=%ld "
      "build=%s obs=on git=%s threads=%zu requests=%zu order=%zu "
      "warmup_passes=%zu rounds=%zu setup_reps=%zu\n",
      w.name.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.scale == Scale::kTiny ? "tiny" : "full", opts.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), AQUA_PERFBENCH_BUILD_TYPE,
      opts.git_sha.c_str(), w.threads, w.requests.size(), w.order.size(),
      warm_passes, kRounds, setup_reps);

  size_t failed = runner.warm_failed() + untraced.failed + traced.failed;
  const size_t attempted = untraced.latencies.size() + traced.latencies.size();
  failed += runner.CheckFinalAges();
  const size_t evictions = Evictions();
  const size_t flips = runner.plan_flips();

  const PhaseResult& shown = opts.trace ? traced : untraced;
  const size_t samples = shown.latencies.size();
  std::printf("# timed: requests=%zu samples=%zu beyond_p95=%zu failed=%zu "
              "plan_flips=%zu evictions=%zu\n",
              attempted, samples, samples - (samples * 95 + 99) / 100, failed,
              flips, evictions);
  PrintTemplates(shown, runner.template_names());
  PrintRounds(shown, round_setup);
  const bool steady = warmed && flips == 0 && evictions == 0;
  if (!steady) {
    std::fprintf(stderr,
                 "perfbench: FAILED steadiness guard: warm-up %s after %zu "
                 "passes, %zu plan flips, %zu evictions\n",
                 warmed ? "converged" : "did not converge", warm_passes,
                 flips, evictions);
  }
  PrintJson(failed == 0 && steady, attempted, failed,
            opts.trace
                ? PerLayer(untraced, traced, *db, flips, evictions)
                : EndToEnd(untraced, setup_s));
  std::fflush(stdout);
  return steady ? 0 : 1;
}

}  // namespace aqua::perfbench
