#ifndef AQUA_OBS_METRICS_H_
#define AQUA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/query_context.h"

namespace aqua::obs {

/// Monotonic named counter. `Add` is a relaxed atomic increment, cheap
/// enough to leave on in production paths; thread-safe. Inside a query it
/// also adds into that query's value of the counter (`QueryContext`), so
/// concurrent executions each see exactly their own counts.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    QueryContext* q = QueryContext::Current();
    if (q != nullptr && slot_ < QueryContext::kCounterSlots) {
      q->AddCounter(slot_, n);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  /// Dense creation-order number; indexes `QueryContext`'s counter slots.
  size_t slot() const { return slot_; }

 private:
  friend class Registry;
  Counter(std::string name, size_t slot)
      : name_(std::move(name)), slot_(slot) {}

  std::string name_;
  size_t slot_;
  std::atomic<uint64_t> value_{0};
};

/// Last-value named gauge (pool utilization, ring-buffer occupancy, queue
/// depths). `Set`/`Add` are relaxed atomics; unlike a Counter the value may
/// go down, and snapshot deltas pass it through as-is (last value wins).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Log-scale (power-of-two bucket) histogram over non-negative integer
/// samples (step counts, candidate counts, nanosecond durations).
///
/// Bucket `b` holds samples with bit-width `b`: bucket 0 is exactly the
/// value 0, bucket `b >= 1` covers `[2^(b-1), 2^b)`. 65 buckets cover the
/// full uint64 range.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index of value `v` (its bit width).
  static size_t BucketOf(uint64_t v);
  /// Inclusive lower bound of bucket `b` (0 for buckets 0 and 1).
  static uint64_t BucketLowerBound(size_t b);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of one histogram: only non-empty buckets are kept,
/// as (bucket index, count) pairs.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<std::pair<size_t, uint64_t>> buckets;
};

/// Point-in-time copy of the whole registry; safe to hold, diff, and
/// serialize after the counters move on.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a counter by name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
  /// Value of a gauge by name; 0 when absent.
  int64_t GaugeValue(std::string_view name) const;

  /// Element-wise `this - base` (values clamp at 0 for entries that were
  /// reset in between). Entries absent from `base` pass through unchanged.
  /// Gauges are *not* differenced: a gauge is a level, not a rate, so the
  /// delta carries this snapshot's last value unchanged.
  Snapshot DeltaSince(const Snapshot& base) const;

  /// `{"counters": {...}, "histograms": {...}}`.
  std::string ToJson() const;
  /// Aligned `name value` lines, counters then histograms.
  std::string ToText() const;
};

/// Process-wide registry of named counters and histograms.
///
/// Metric objects are created on first use and never destroyed or moved, so
/// instrumentation sites may cache the returned pointer (the AQUA_OBS_*
/// macros below do exactly that via a function-local static).
class Registry {
 public:
  static Registry& Global();

  /// Runtime kill switch for the AQUA_OBS_* macros: the disabled path is a
  /// single relaxed load + branch.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Returns the counter/gauge/histogram named `name`, creating it if
  /// needed.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  Snapshot Snap() const;
  /// One execution's counters: every registered counter with its value
  /// taken from `query` (indexed by `Counter::slot()`; 0 past the slot
  /// range). Holds no gauges or histograms: those are process-level and
  /// read with `Snap()`.
  Snapshot ForQuery(const QueryContext::CounterValues& query) const;
  /// Zeroes every counter and histogram (benchmark/test hygiene); the
  /// registered names and cached pointers stay valid.
  void ResetAll();

 private:
  Registry();
  /// Creates the counter `name`; the caller holds `mu_`.
  Counter* AddCounterLocked(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;

  static std::atomic<bool> enabled_;
};

}  // namespace aqua::obs

/// Instrumentation macros. `name` must be a string literal (or otherwise
/// stable for the life of the process); the metric pointer is resolved once
/// per call site. Compile out entirely with -DAQUA_OBS_DISABLED; at runtime
/// `Registry::set_enabled(false)` reduces each site to one branch.
#ifndef AQUA_OBS_DISABLED
#define AQUA_OBS_COUNT(name, n)                                     \
  do {                                                              \
    if (::aqua::obs::Registry::enabled()) {                         \
      static ::aqua::obs::Counter* const aqua_obs_counter_ =        \
          ::aqua::obs::Registry::Global().GetCounter(name);         \
      aqua_obs_counter_->Add(static_cast<uint64_t>(n));             \
    }                                                               \
  } while (0)
#define AQUA_OBS_RECORD(name, v)                                    \
  do {                                                              \
    if (::aqua::obs::Registry::enabled()) {                         \
      static ::aqua::obs::Histogram* const aqua_obs_hist_ =         \
          ::aqua::obs::Registry::Global().GetHistogram(name);       \
      aqua_obs_hist_->Record(static_cast<uint64_t>(v));             \
    }                                                               \
  } while (0)
#define AQUA_OBS_GAUGE_SET(name, v)                                 \
  do {                                                              \
    if (::aqua::obs::Registry::enabled()) {                         \
      static ::aqua::obs::Gauge* const aqua_obs_gauge_ =            \
          ::aqua::obs::Registry::Global().GetGauge(name);           \
      aqua_obs_gauge_->Set(static_cast<int64_t>(v));                \
    }                                                               \
  } while (0)
#define AQUA_OBS_GAUGE_ADD(name, n)                                 \
  do {                                                              \
    if (::aqua::obs::Registry::enabled()) {                         \
      static ::aqua::obs::Gauge* const aqua_obs_gauge_ =            \
          ::aqua::obs::Registry::Global().GetGauge(name);           \
      aqua_obs_gauge_->Add(static_cast<int64_t>(n));                \
    }                                                               \
  } while (0)
#else
#define AQUA_OBS_COUNT(name, n) \
  do {                          \
  } while (0)
#define AQUA_OBS_RECORD(name, v) \
  do {                           \
  } while (0)
#define AQUA_OBS_GAUGE_SET(name, v) \
  do {                              \
  } while (0)
#define AQUA_OBS_GAUGE_ADD(name, n) \
  do {                              \
  } while (0)
#endif

#endif  // AQUA_OBS_METRICS_H_
