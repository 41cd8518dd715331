#ifndef AQUA_OBS_RECORDER_H_
#define AQUA_OBS_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace aqua::obs {

/// What one flight-recorder event describes.
enum class FlightEventKind : uint32_t {
  kExecute = 0,  ///< one `Executor::Execute`
  kMorsel = 1,   ///< one morsel of a parallel fan-out
};

/// One fixed-size structured event. Every field is plain integral data so
/// the ring buffer can publish events word-by-word without locks; strings
/// (plan text, operator names) live in the digest table, keyed by
/// `fingerprint`.
struct FlightEvent {
  uint64_t seq = 0;          ///< recorder-wide order (assigned by Record)
  uint64_t t_ns = 0;         ///< event end, ns since the recorder epoch
  uint64_t fingerprint = 0;  ///< normalized-plan fingerprint (0 for morsels)
  uint64_t wall_ns = 0;      ///< wall time of the execute / morsel
  uint32_t kind = 0;         ///< FlightEventKind
  uint32_t ok = 1;           ///< 0 when the execute returned an error
  uint32_t threads = 0;      ///< execute: participants; morsel: worker slot
  uint32_t morsels = 0;      ///< execute: morsels run; morsel: items in it
  uint64_t max_morsel_ns = 0;  ///< execute: slowest morsel (skew highlight)
  // Counter-delta highlights of the execute (zero for morsel events).
  uint64_t tree_steps = 0;
  uint64_t list_steps = 0;
  uint64_t index_probes = 0;
  uint64_t nodes_visited = 0;
  // Lifecycle fields of the execute (zero for morsel events).
  uint64_t query_id = 0;     ///< QueryContext id
  uint64_t cpu_ns = 0;       ///< CPU across the query thread + helpers
  uint64_t mem_peak = 0;     ///< peak estimated live bytes
  uint32_t code = 0;         ///< StatusCode the execute finished with
  /// Store epoch the execute pinned its read snapshot at (0 for morsels);
  /// doubles as the struct's word-alignment padding.
  uint32_t pinned_epoch = 0;
};
static_assert(sizeof(FlightEvent) % sizeof(uint64_t) == 0,
              "FlightEvent must be publishable as whole words");

/// Always-on, bounded-memory flight recorder: per-thread lock-free ring
/// buffers of the most recent `FlightEvent`s, merged on demand into one
/// chronological dump.
///
/// Writers: each recording thread owns a private ring (registered on first
/// use, never deallocated), so `Record` is wait-free — a global relaxed
/// `fetch_add` for the sequence number plus word-wise relaxed stores into
/// the ring slot, guarded by a per-slot seqlock version for readers.
/// Readers (`Dump`, the shell's `\flight`, the `/flight` endpoint) copy
/// slots optimistically and discard any slot whose version moved while it
/// was being read, so a dump taken during heavy traffic is consistent
/// per-event without ever stalling a writer.
///
/// Capacity is fixed at `kRingCapacity` events per thread; the retained
/// total is published as the `obs.recorder_occupancy` gauge.
class FlightRecorder {
 public:
  static constexpr size_t kRingCapacity = 1024;  // events per thread ring

  static FlightRecorder& Global();

  /// Records `e` in the calling thread's ring. `e.seq` and `e.t_ns` are
  /// assigned here; other fields are the caller's.
  void Record(FlightEvent e);

  /// All retained events across every thread ring, oldest first.
  std::vector<FlightEvent> Dump() const AQUA_EXCLUDES(mu_);

  /// Tabular rendering of `Dump()` (newest last), one line per event.
  std::string ToText(size_t max_events = 64) const;
  /// `{"events":[{...}...]}`, oldest first.
  std::string ToJson(size_t max_events = kRingCapacity) const;

  /// Drops every retained event (the rings themselves stay registered).
  void Clear() AQUA_EXCLUDES(mu_);

  /// Events currently retained across all rings.
  size_t retained() const;
  /// Ring count (== number of threads that ever recorded).
  size_t rings() const AQUA_EXCLUDES(mu_);

  // --- slow-query log -----------------------------------------------------
  // When a threshold is set (> 0), the executor reports every Execute whose
  // wall time meets it; the recorder appends a structured block (plan text,
  // span tree when tracing was on, the query's counters) to the log file.

  /// 0 disables. Also settable via AQUA_SLOW_QUERY_MS at process start.
  void set_slow_query_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_query_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }
  /// Defaults to "aqua_slow_queries.log" (AQUA_SLOW_QUERY_LOG overrides).
  void set_slow_query_log_path(std::string path) AQUA_EXCLUDES(mu_);
  std::string slow_query_log_path() const AQUA_EXCLUDES(mu_);

  /// Appends one slow-query block to the log. `trace_report` may be empty
  /// (tracing off); `plan_text` is the full (non-normalized) plan.
  void AppendSlowQuery(uint64_t wall_ns, uint64_t fingerprint,
                       std::string_view plan_text,
                       std::string_view trace_report, const Snapshot& delta)
      AQUA_EXCLUDES(mu_);

  /// Slow queries logged since process start (cheap health indicator).
  uint64_t slow_queries_logged() const {
    return slow_logged_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kEventWords = sizeof(FlightEvent) / sizeof(uint64_t);

  /// One seqlock-published slot. Readers retry/discard on a torn read; the
  /// single writer (the ring's owning thread) never blocks.
  struct Slot {
    std::atomic<uint64_t> version{0};  // even = stable, odd = being written
    std::array<std::atomic<uint64_t>, kEventWords> words{};
  };

  struct Ring {
    std::array<Slot, kRingCapacity> slots;
    std::atomic<uint64_t> head{0};  // events ever written to this ring
  };

  FlightRecorder();

  Ring* LocalRing();
  Ring* RegisterRing() AQUA_EXCLUDES(mu_);

  mutable Mutex mu_;  // guards rings_ growth + the slow log
  /// One ring per recording thread. Growth is guarded; established rings
  /// are written lock-free by their owning thread (seqlock slots above).
  std::vector<std::unique_ptr<Ring>> rings_ AQUA_GUARDED_BY(mu_);
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> retained_{0};
  std::atomic<uint64_t> slow_threshold_ns_{0};
  std::atomic<uint64_t> slow_logged_{0};
  std::string slow_log_path_ AQUA_GUARDED_BY(mu_);
  uint64_t epoch_ns_ = 0;  // steady-clock origin for t_ns; set once in ctor
};

}  // namespace aqua::obs

#endif  // AQUA_OBS_RECORDER_H_
