#include "obs/query_context.h"

#include <time.h>

#include <cstdlib>

#include "obs/metrics.h"

namespace aqua::obs {

namespace {

std::atomic<uint64_t> g_next_query_id{1};

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t MonotonicEpochNs() {
  static const uint64_t epoch = ClockNs(CLOCK_MONOTONIC);
  return epoch;
}

}  // namespace

uint64_t QueryContext::NowNs() {
  // Pin the epoch before the current reading: on the process's very first
  // call the epoch static initializes from its own (later) clock sample,
  // and subtracting it from an earlier reading would wrap.
  const uint64_t epoch = MonotonicEpochNs();
  return ClockNs(CLOCK_MONOTONIC) - epoch;
}

uint64_t QueryContext::ThreadCpuNs() {
  return ClockNs(CLOCK_THREAD_CPUTIME_ID);
}

QueryContext::QueryContext()
    : id_(g_next_query_id.fetch_add(1, std::memory_order_relaxed)),
      started_ns_(NowNs()) {}

QueryContext::~QueryContext() {
  // Undo this query's residual contribution to the process-wide gauge
  // (operator outputs still charged when the query returned its result).
  int64_t residual = mem_bytes_.load(std::memory_order_relaxed);
  if (residual != 0) AQUA_OBS_GAUGE_ADD("query.mem_bytes", -residual);
}

void QueryContext::set_deadline_after_ns(uint64_t timeout_ns) {
  deadline_ns_.store(timeout_ns == 0 ? 0 : NowNs() + timeout_ns,
                     std::memory_order_relaxed);
}

void QueryContext::Cancel(StatusCode code, std::string_view detail) {
  if (code == StatusCode::kOk) return;
  std::lock_guard<std::mutex> lock(cancel_mu_);
  if (cancel_code_.load(std::memory_order_relaxed) != 0) return;
  cancel_detail_ = std::string(detail);
  // Release: a checkpoint that acquires a non-zero code sees the detail.
  cancel_code_.store(static_cast<uint32_t>(code), std::memory_order_release);
}

Status QueryContext::CancelStatus() const {
  uint32_t code = cancel_code_.load(std::memory_order_acquire);
  if (code == 0) return Status::OK();
  std::string detail;
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    detail = cancel_detail_;
  }
  std::string msg = "query " + std::to_string(id_) + " " + detail;
  return Status(static_cast<StatusCode>(code), std::move(msg));
}

Status QueryContext::CheckPoint() {
  if (cancel_code_.load(std::memory_order_relaxed) != 0) {
    return CancelStatus();
  }
  uint64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && NowNs() >= deadline) {
    Cancel(StatusCode::kDeadlineExceeded, "exceeded its deadline");
    return CancelStatus();
  }
  if (mem_limit_bytes_ != 0 && mem_bytes() > mem_limit_bytes_) {
    Cancel(StatusCode::kCancelled,
           "exceeded its memory limit (" + std::to_string(mem_bytes()) +
               " > " + std::to_string(mem_limit_bytes_) + " bytes)");
    return CancelStatus();
  }
  return Status::OK();
}

void QueryContext::AddMem(int64_t delta) {
  if (delta == 0) return;
  int64_t now = mem_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (now > 0) {
    uint64_t cur = static_cast<uint64_t>(now);
    uint64_t peak = mem_peak_bytes_.load(std::memory_order_relaxed);
    while (peak < cur && !mem_peak_bytes_.compare_exchange_weak(
                             peak, cur, std::memory_order_relaxed)) {
    }
  }
  AQUA_OBS_GAUGE_ADD("query.mem_bytes", delta);
}

QueryContext::CounterValues QueryContext::counters() const {
  CounterValues out;
  for (size_t i = 0; i < kCounterSlots; ++i) out[i] = counter(i);
  return out;
}

namespace {

uint64_t EnvUint(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at init.
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  return end == raw ? 0 : static_cast<uint64_t>(v);
}

}  // namespace

uint64_t DefaultQueryTimeoutNs() {
  return EnvUint("AQUA_QUERY_TIMEOUT_MS") * 1000000ull;
}

uint64_t DefaultQueryMemLimitBytes() {
  return EnvUint("AQUA_QUERY_MEM_LIMIT_MB") * 1024ull * 1024ull;
}

}  // namespace aqua::obs
