#ifndef AQUA_OBS_EXPORT_H_
#define AQUA_OBS_EXPORT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/stats.h"

namespace aqua::obs {

/// Options for `ToOpenMetrics`.
struct OpenMetricsOptions {
  /// Metric-name prefix (dots in registry names become underscores).
  std::string prefix = "aqua_";
  /// When set, the plan catalogue is exported as labeled series: per plan
  /// (`<prefix>digest_calls_total{digest="<hex>"}` etc., the top 50 rows
  /// by total time) and per op
  /// (`<prefix>stats_op_calls_total{plan="<hex>",path="0.0",op="..."}`
  /// etc., the top 50 op records by EWMA wall time).
  const StatsWarehouse* plans = nullptr;
};

/// Renders `snap` in OpenMetrics text exposition format: counters (with
/// the mandatory `_total` sample suffix), gauges, and histograms
/// (`_bucket{le=...}` cumulative + `_sum` + `_count`), terminated by
/// `# EOF`. Registry histogram buckets are log-scale, so `le` bounds are
/// the buckets' inclusive integer upper bounds (0, 1, 3, 7, ..., +Inf).
std::string ToOpenMetrics(const Snapshot& snap,
                          const OpenMetricsOptions& opts = {});

/// Validates the OpenMetrics conformance rules this repo relies on:
/// `# TYPE` precedes a family's samples, counters end in `_total`,
/// histogram `le` bounds and cumulative bucket counts are monotone with a
/// final `+Inf` bucket equal to `_count`, and the exposition ends with
/// `# EOF`. Used by tests and by `aqua_metricsd --check`.
Status CheckOpenMetrics(std::string_view text);

/// Parses the request-target out of an HTTP request head: the request line
/// must start with `GET `, the path must be followed by a space (the
/// HTTP-version field), and the line must be `\r\n`-terminated within
/// `req`. Anything else — a truncated line from a client that died
/// mid-send, a garbage greeting, a bare `GET` — is InvalidArgument, which
/// the server answers with 400 rather than misreading it as `/`.
Status ParseHttpRequestPath(std::string_view req, std::string* path);

/// Minimal embedded HTTP/1.1 listener serving the observability surface:
///
///   GET /metrics  — OpenMetrics exposition of the registry + plan
///                    catalogue
///   GET /plans    — plan catalogue as JSON
///   GET /flight   — flight-recorder dump as JSON
///   GET /tasks    — live task table (in-flight queries) as JSON
///   GET /healthz  — "ok"
///
/// Unknown paths get 404; malformed or truncated request lines get 400.
///
/// One background thread accepts loopback connections and serves one
/// request per connection (Prometheus' scrape pattern). All served data
/// comes from snapshot copies, so scrapes never block query threads.
class MetricsHttpServer {
 public:
  MetricsHttpServer() = default;
  ~MetricsHttpServer() { Stop(); }
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; see `port()`) and
  /// starts the accept thread.
  Status Start(uint16_t port);
  void Stop();

  bool running() const { return listen_fd_.load() >= 0; }
  /// The bound port (resolved after Start, also for port 0).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  std::string Respond(const std::string& path) const;

  std::atomic<int> listen_fd_{-1};
  std::thread thread_;
  uint16_t port_ = 0;
};

}  // namespace aqua::obs

#endif  // AQUA_OBS_EXPORT_H_
