#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "obs/json.h"

namespace aqua::obs {

std::atomic<bool> Registry::enabled_{true};

size_t Histogram::BucketOf(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}

uint64_t Histogram::BucketLowerBound(size_t b) {
  return b <= 1 ? 0 : (uint64_t{1} << (b - 1));
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

uint64_t Snapshot::CounterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t Snapshot::GaugeValue(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

Snapshot Snapshot::DeltaSince(const Snapshot& base) const {
  auto minus = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  Snapshot delta;
  delta.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    delta.counters.emplace_back(name, minus(value, base.CounterValue(name)));
  }
  // Gauges are levels, not rates: the delta of a window is the level at the
  // window's end, never a (meaningless, possibly negative) difference.
  delta.gauges = gauges;
  for (const HistogramSnapshot& h : histograms) {
    const HistogramSnapshot* b = nullptr;
    for (const HistogramSnapshot& cand : base.histograms) {
      if (cand.name == h.name) {
        b = &cand;
        break;
      }
    }
    HistogramSnapshot d;
    d.name = h.name;
    d.count = minus(h.count, b == nullptr ? 0 : b->count);
    d.sum = minus(h.sum, b == nullptr ? 0 : b->sum);
    for (const auto& [bucket, cnt] : h.buckets) {
      uint64_t prev = 0;
      if (b != nullptr) {
        for (const auto& [bb, bc] : b->buckets) {
          if (bb == bucket) {
            prev = bc;
            break;
          }
        }
      }
      uint64_t diff = minus(cnt, prev);
      if (diff > 0) d.buckets.emplace_back(bucket, diff);
    }
    delta.histograms.push_back(std::move(d));
  }
  return delta;
}

std::string Snapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    w.Key(name).Uint(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) {
    w.Key(name).Int(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const HistogramSnapshot& h : histograms) {
    w.Key(h.name).BeginObject();
    w.Key("count").Uint(h.count);
    w.Key("sum").Uint(h.sum);
    w.Key("buckets").BeginObject();
    for (const auto& [bucket, cnt] : h.buckets) {
      // Keyed by the bucket's inclusive lower bound, the natural axis for
      // a log-scale histogram.
      w.Key(std::to_string(Histogram::BucketLowerBound(bucket))).Uint(cnt);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string Snapshot::ToText() const {
  size_t width = 0;
  for (const auto& [name, value] : counters) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges) width = std::max(width, name.size());
  for (const HistogramSnapshot& h : histograms) width = std::max(width, h.name.size());
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name;
    out.append(width - name.size() + 2, ' ');
    out += std::to_string(value);
    out += '\n';
  }
  for (const auto& [name, value] : gauges) {
    out += name;
    out.append(width - name.size() + 2, ' ');
    out += std::to_string(value);
    out += '\n';
  }
  for (const HistogramSnapshot& h : histograms) {
    out += h.name;
    out.append(width - h.name.size() + 2, ' ');
    char buf[96];
    std::snprintf(buf, sizeof(buf), "count=%llu sum=%llu mean=%.1f",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  h.count == 0 ? 0.0
                               : static_cast<double>(h.sum) /
                                     static_cast<double>(h.count));
    out += buf;
    out += '\n';
  }
  return out;
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // intentionally leaked
  return *instance;
}

Registry::Registry() {
  // Pre-register the well-known metrics so snapshots (and the benchmark
  // JSON records built from them) always carry the full schema, even in a
  // process that never exercised a given layer. The naming scheme is
  // documented in docs/OBSERVABILITY.md.
  for (const char* name :
       {"pattern.nfa_steps", "pattern.dfa_hits", "pattern.dfa_misses",
        "pattern.nfa_prefilter_rejects", "pattern.list_match_calls",
        "pattern.list_steps", "pattern.tree_match_calls",
        "pattern.tree_steps", "pattern.tree_memo_hits",
        "pattern.alphabet_preds", "index.probes",
        "index.candidates", "algebra.structural_nodes_visited",
        "exec.executes", "exec.operators_evaluated", "exec.trees_processed",
        "exec.lists_processed", "exec.batched_patterns",
        "exec.batch_scan_rows", "stats.harvests", "stats.evictions",
        "cost.learned_hits", "cost.learned_misses",
        "lint.attr_scan_cells"}) {
    AddCounterLocked(name);
  }
  for (const char* name :
       {"exec.pool_workers_active", "exec.pool_queue_depth",
        "obs.recorder_occupancy", "stats.records_live"}) {
    gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name)));
  }
  for (const char* name :
       {"exec.operator_ns", "exec.execute_ns", "index.candidates_per_probe",
        "pattern.tree_steps_per_call"}) {
    histograms_.emplace(name, std::unique_ptr<Histogram>(new Histogram(name)));
  }
}

Counter* Registry::AddCounterLocked(const std::string& name) {
  // Counters are never removed, so the map size is the next dense slot.
  size_t slot = counters_.size();
  return counters_
      .emplace(name, std::unique_ptr<Counter>(new Counter(name, slot)))
      .first->second.get();
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : AddCounterLocked(name);
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(name)))
             .first;
  }
  return it->second.get();
}

Snapshot Registry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = hist->count();
    h.sum = hist->sum();
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      uint64_t c = hist->bucket(b);
      if (c > 0) h.buckets.emplace_back(b, c);
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

Snapshot Registry::ForQuery(const QueryContext::CounterValues& query) const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    size_t slot = counter->slot();
    snap.counters.emplace_back(name, slot < query.size() ? query[slot] : 0);
  }
  return snap;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace aqua::obs
