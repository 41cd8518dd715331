#include "exec/morsel.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace aqua::exec {

std::vector<std::pair<size_t, size_t>> PartitionMorsels(size_t n,
                                                        size_t threads,
                                                        size_t min_items) {
  std::vector<std::pair<size_t, size_t>> out;
  if (n == 0) return out;
  if (threads < 1) threads = 1;
  if (min_items < 1) min_items = 1;
  // ~4 waves per participant leaves the claim loop slack to absorb skewed
  // per-item costs without a work-stealing deque.
  size_t target = threads * 4;
  size_t grain = (n + target - 1) / target;
  if (grain < min_items) grain = min_items;
  for (size_t begin = 0; begin < n; begin += grain) {
    out.emplace_back(begin, std::min(n, begin + grain));
  }
  return out;
}

namespace {

/// State shared between the caller and its helper tasks. Held by
/// shared_ptr so a straggler helper that wakes after the join only touches
/// memory that is still alive (it can no longer claim a morsel).
struct FanState {
  std::vector<std::pair<size_t, size_t>> ranges;
  const std::function<Status(const Morsel&)>* fn = nullptr;
  size_t participants = 1;
  bool tracing = false;
  std::vector<std::unique_ptr<obs::Trace>> buffers;  // one per morsel
  std::atomic<size_t>* morsels_run = nullptr;        // optional sinks
  std::atomic<uint64_t>* morsel_max_ns = nullptr;
  obs::QueryContext* query = nullptr;

  std::atomic<size_t> next{0};        // claim cursor
  std::atomic<size_t> unfinished{0};  // claimed-but-unfinished + unclaimed
  std::atomic<size_t> err_morsel{static_cast<size_t>(-1)};  // skip fast-path

  std::mutex mu;
  std::condition_variable cv;
  Status err = Status::OK();  // guarded by mu; morsel of lowest index wins
  size_t err_morsel_locked = static_cast<size_t>(-1);
};

void Drain(const std::shared_ptr<FanState>& state, size_t slot) {
  // Helpers install the query context so matcher checkpoints (cancellation,
  // deadline, memory) fire on pool threads too; slot 0 runs on the query
  // thread where the executor's own Scope is already active, but installing
  // again is a harmless no-op nest. Helper CPU is accounted here; the query
  // thread's total (which covers its Drain share) is measured by the
  // executor, so nothing is counted twice.
  obs::QueryContext::Scope qscope(state->query);
  uint64_t cpu0 = slot != 0 && state->query != nullptr
                      ? obs::QueryContext::ThreadCpuNs()
                      : 0;
  for (;;) {
    size_t m = state->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= state->ranges.size()) break;
    if (m < state->err_morsel.load(std::memory_order_acquire)) {
      obs::Trace* buf = state->tracing ? state->buffers[m].get() : nullptr;
      Morsel morsel{m, state->ranges[m].first, state->ranges[m].second, slot,
                    buf};
      Status st = Status::OK();
      {
        obs::Span span(buf, "Morsel");
        span.AddAttr("begin", static_cast<int64_t>(morsel.begin));
        span.AddAttr("items", static_cast<int64_t>(morsel.end - morsel.begin));
        span.AddAttr("worker", static_cast<int64_t>(slot));
        st = (*state->fn)(morsel);
        AQUA_OBS_COUNT("exec.tasks_run", 1);
        if (slot != m % state->participants) {
          AQUA_OBS_COUNT("exec.steal_count", 1);
        }
        uint64_t morsel_ns = span.ElapsedNs();
        AQUA_OBS_RECORD("exec.morsel_ms",
                        static_cast<uint64_t>(morsel_ns / 1000000));
        if (state->morsels_run != nullptr) {
          state->morsels_run->fetch_add(1, std::memory_order_relaxed);
        }
        if (state->morsel_max_ns != nullptr) {
          uint64_t prev =
              state->morsel_max_ns->load(std::memory_order_relaxed);
          while (prev < morsel_ns &&
                 !state->morsel_max_ns->compare_exchange_weak(
                     prev, morsel_ns, std::memory_order_relaxed)) {
          }
        }
#ifndef AQUA_OBS_DISABLED
        if (obs::Registry::enabled()) {
          obs::FlightEvent ev;
          ev.kind = static_cast<uint32_t>(obs::FlightEventKind::kMorsel);
          ev.ok = st.ok() ? 1 : 0;
          ev.wall_ns = morsel_ns;
          ev.threads = static_cast<uint32_t>(slot);
          ev.morsels = static_cast<uint32_t>(morsel.end - morsel.begin);
          obs::FlightRecorder::Global().Record(ev);
        }
#endif
      }
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (m < state->err_morsel_locked) {
          state->err_morsel_locked = m;
          state->err = std::move(st);
          state->err_morsel.store(m, std::memory_order_release);
        }
      }
    }
    if (state->query != nullptr) {
      state->query->AddMorselsDone(1);
      // Helper CPU must be flushed while this morsel's `unfinished` credit
      // is still held: the moment the last credit drops, the caller's join
      // returns and the query context (stack-allocated in Execute) dies.
      // A straggler touching it after its final decrement is a
      // use-after-return — so never touch `state->query` past that point.
      if (slot != 0) {
        uint64_t now = obs::QueryContext::ThreadCpuNs();
        state->query->AddCpuNs(now - cpu0);
        cpu0 = now;
      }
    }
    if (state->unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

Status RunMorsels(ThreadPool& pool, size_t n, const FanOutOptions& opts,
                  const std::function<Status(const Morsel&)>& fn) {
  std::vector<std::pair<size_t, size_t>> ranges =
      PartitionMorsels(n, opts.threads, opts.min_items_per_morsel);
  if (ranges.empty()) return Status::OK();

  // Serial path: inline, in order, early exit — the pre-pipeline semantics
  // (`AQUA_THREADS=1`), byte-identical including the absence of morsel
  // spans and morsel metrics.
  if (opts.query != nullptr) opts.query->AddMorselsTotal(ranges.size());
  if (opts.threads <= 1 || ranges.size() <= 1) {
    for (size_t m = 0; m < ranges.size(); ++m) {
      Morsel morsel{m, ranges[m].first, ranges[m].second, 0, nullptr};
      AQUA_RETURN_IF_ERROR(fn(morsel));
      if (opts.query != nullptr) opts.query->AddMorselsDone(1);
    }
    return Status::OK();
  }

  auto state = std::make_shared<FanState>();
  state->ranges = std::move(ranges);
  state->fn = &fn;
  state->participants = std::min(opts.threads, state->ranges.size());
  state->tracing = opts.trace != nullptr && opts.trace->enabled();
  state->morsels_run = opts.morsels_run;
  state->morsel_max_ns = opts.morsel_max_ns;
  state->query = opts.query;
  state->unfinished.store(state->ranges.size(), std::memory_order_relaxed);
  if (state->tracing) {
    state->buffers.resize(state->ranges.size());
    for (auto& buf : state->buffers) {
      buf = std::make_unique<obs::Trace>();
      buf->set_enabled(true);
    }
  }

  // Queue the helpers before growing the pool, so the workers already
  // running start at once, then grow one worker at a time and stop once
  // the query is cancelled: a kill must not wait for thread creation,
  // which takes milliseconds per thread under sanitizers. One worker is
  // always there to consume the queued helpers.
  for (size_t slot = 1; slot < state->participants; ++slot) {
    pool.Submit([state, slot] { Drain(state, slot); });
  }
  for (size_t w = pool.workers(); w + 1 < state->participants; ++w) {
    if (w > 0 && state->query != nullptr && state->query->cancel_requested()) {
      break;
    }
    pool.EnsureWorkers(w + 1);
  }
  Drain(state, 0);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->unfinished.load(std::memory_order_acquire) == 0;
    });
  }

  // Stitch per-morsel span buffers into the query trace in morsel order:
  // the stitched tree's *structure* is deterministic even though timings
  // and worker attribution vary run to run.
  if (state->tracing) {
    for (const auto& buf : state->buffers) opts.trace->Splice(*buf);
  }

  std::lock_guard<std::mutex> lock(state->mu);
  return state->err;
}

}  // namespace aqua::exec
