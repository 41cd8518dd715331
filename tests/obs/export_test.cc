#include "obs/export.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "obs/stats.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace aqua::obs {
namespace {

TEST(ToOpenMetricsTest, CountersGaugesAndEof) {
  Snapshot snap;
  snap.counters.emplace_back("exec.executes", 7);
  snap.gauges.emplace_back("exec.pool_queue_depth", 3);
  std::string text = ToOpenMetrics(snap);
  EXPECT_NE(text.find("# TYPE aqua_exec_executes counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("aqua_exec_executes_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aqua_exec_pool_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("aqua_exec_pool_queue_depth 3"), std::string::npos);
  // The exposition must end with the OpenMetrics terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(ToOpenMetricsTest, HistogramBucketsAreCumulativeLogBounds) {
  Snapshot snap;
  HistogramSnapshot h;
  h.name = "exec.execute_ns";
  h.count = 3;
  h.sum = 12;
  h.buckets.emplace_back(Histogram::BucketOf(1), 1);  // bucket 1, le="1"
  h.buckets.emplace_back(Histogram::BucketOf(5), 2);  // bucket 3, le="7"
  snap.histograms.push_back(h);
  std::string text = ToOpenMetrics(snap);
  EXPECT_NE(text.find("# TYPE aqua_exec_execute_ns histogram"),
            std::string::npos)
      << text;
  // le bounds are the log buckets' inclusive upper bounds (2^b - 1) and
  // counts are cumulative.
  EXPECT_NE(text.find("aqua_exec_execute_ns_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("aqua_exec_execute_ns_bucket{le=\"7\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("aqua_exec_execute_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("aqua_exec_execute_ns_sum 12"), std::string::npos);
  EXPECT_NE(text.find("aqua_exec_execute_ns_count 3"), std::string::npos);
  EXPECT_OK(CheckOpenMetrics(text));
}

TEST(ToOpenMetricsTest, DigestRowsExportAsLabeledSeries) {
  StatsWarehouse table;
  table.Record(0x1234, "sub_select [t]", 1000);
  OpSample op;
  op.op_name = "sub_select";
  op.path = "0";
  op.in_rows = 8;
  op.out_rows = 2;
  table.Record(0x1234, "sub_select [t]", 3000, 0, StatusCode::kOk, false,
               {op});
  Snapshot snap;
  OpenMetricsOptions opts;
  opts.plans = &table;
  std::string text = ToOpenMetrics(snap, opts);
  EXPECT_NE(
      text.find("aqua_digest_calls_total{digest=\"0000000000001234\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("aqua_digest_ns_total{digest=\"0000000000001234\"} 4000"),
      std::string::npos);
  EXPECT_NE(text.find("aqua_digest_p50_ns{digest="), std::string::npos);
  EXPECT_NE(text.find("aqua_digest_p99_ns{digest="), std::string::npos);
  // The row's op records export under the same plan fingerprint.
  EXPECT_NE(text.find("aqua_stats_op_calls_total{plan=\"0000000000001234\","
                      "path=\"0\",op=\"sub_select\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("aqua_stats_op_selectivity{plan="), std::string::npos);
  EXPECT_OK(CheckOpenMetrics(text));
}

TEST(ToOpenMetricsTest, NamesAreMangledToValidCharset) {
  Snapshot snap;
  snap.counters.emplace_back("weird.name-with chars", 1);
  std::string text = ToOpenMetrics(snap);
  EXPECT_NE(text.find("aqua_weird_name_with_chars_total 1"),
            std::string::npos)
      << text;
  EXPECT_OK(CheckOpenMetrics(text));
}

TEST(ToOpenMetricsTest, FullRegistrySnapshotPassesTheChecker) {
  // The real pre-registered schema plus live digest rows round-trips
  // through the checker — the same invariant CI asserts on a scraped body.
  Registry::Global().GetCounter("test.export_roundtrip")->Add(5);
  Registry::Global().GetHistogram("test.export_roundtrip_ns")->Record(1234);
  OpenMetricsOptions opts;
  opts.plans = &StatsWarehouse::Global();
  std::string text = ToOpenMetrics(Registry::Global().Snap(), opts);
  EXPECT_OK(CheckOpenMetrics(text));
}

TEST(CheckOpenMetricsTest, RejectsMalformedExpositions) {
  // Accepts the minimal valid document.
  EXPECT_OK(CheckOpenMetrics(
      "# TYPE aqua_x counter\naqua_x_total 1\n# EOF\n"));
  // Missing the EOF terminator.
  EXPECT_FALSE(
      CheckOpenMetrics("# TYPE aqua_x counter\naqua_x_total 1\n").ok());
  // Missing trailing newline.
  EXPECT_FALSE(
      CheckOpenMetrics("# TYPE aqua_x counter\naqua_x_total 1\n# EOF").ok());
  // Content after EOF.
  EXPECT_FALSE(CheckOpenMetrics(
                   "# TYPE aqua_x counter\naqua_x_total 1\n# EOF\nextra 1\n")
                   .ok());
  // Counter sample without the mandatory _total suffix.
  EXPECT_FALSE(
      CheckOpenMetrics("# TYPE aqua_x counter\naqua_x 1\n# EOF\n").ok());
  // Sample with no TYPE declaration.
  EXPECT_FALSE(CheckOpenMetrics("aqua_mystery_total 1\n# EOF\n").ok());
  // Duplicate TYPE lines for one family.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE aqua_x counter\n"
                                "# TYPE aqua_x counter\n"
                                "aqua_x_total 1\n# EOF\n")
                   .ok());
}

TEST(CheckOpenMetricsTest, EnforcesHistogramMonotonicity) {
  // Non-monotone cumulative counts.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE aqua_h histogram\n"
                                "aqua_h_bucket{le=\"1\"} 5\n"
                                "aqua_h_bucket{le=\"3\"} 4\n"
                                "aqua_h_bucket{le=\"+Inf\"} 5\n"
                                "aqua_h_sum 9\n"
                                "aqua_h_count 5\n# EOF\n")
                   .ok());
  // le bounds out of order.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE aqua_h histogram\n"
                                "aqua_h_bucket{le=\"3\"} 1\n"
                                "aqua_h_bucket{le=\"1\"} 2\n"
                                "aqua_h_bucket{le=\"+Inf\"} 2\n"
                                "aqua_h_sum 4\n"
                                "aqua_h_count 2\n# EOF\n")
                   .ok());
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE aqua_h histogram\n"
                                "aqua_h_bucket{le=\"+Inf\"} 2\n"
                                "aqua_h_sum 4\n"
                                "aqua_h_count 3\n# EOF\n")
                   .ok());
  // A well-formed histogram passes.
  EXPECT_OK(CheckOpenMetrics("# TYPE aqua_h histogram\n"
                             "aqua_h_bucket{le=\"1\"} 1\n"
                             "aqua_h_bucket{le=\"+Inf\"} 2\n"
                             "aqua_h_sum 4\n"
                             "aqua_h_count 2\n# EOF\n"));
}

/// Blocking loopback HTTP GET; returns the full response (headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: close\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(MetricsHttpServerTest, ServesMetricsDigestsFlightAndHealth) {
  Registry::Global().GetCounter("exec.executes")->Add(1);
  StatsWarehouse::Global().Record(0xfeed, "scan [t]", 500);

  MetricsHttpServer server;
  ASSERT_OK(server.Start(0));  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  std::string body = BodyOf(metrics);
  EXPECT_OK(CheckOpenMetrics(body));
  EXPECT_NE(body.find("aqua_exec_executes_total"), std::string::npos);
  EXPECT_NE(body.find("aqua_digest_calls_total{digest="), std::string::npos);

  std::string plans = BodyOf(HttpGet(server.port(), "/plans"));
  EXPECT_NE(plans.find("\"plans\""), std::string::npos);
  EXPECT_NE(plans.find("\"000000000000feed\""), std::string::npos) << plans;
  std::string flight = BodyOf(HttpGet(server.port(), "/flight"));
  EXPECT_NE(flight.find("\"events\""), std::string::npos);
  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");
  std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  StatsWarehouse::Global().Reset();
}

TEST(ParseHttpRequestPathTest, AcceptsWellFormedRequestLines) {
  std::string path;
  EXPECT_OK(ParseHttpRequestPath("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
                                 &path));
  EXPECT_EQ(path, "/metrics");
  EXPECT_OK(ParseHttpRequestPath("GET / HTTP/1.0\r\n\r\n", &path));
  EXPECT_EQ(path, "/");
}

TEST(ParseHttpRequestPathTest, RejectsTruncatedAndMalformedLines) {
  std::string path;
  // A client that died mid-send: no \r\n terminator yet.
  EXPECT_FALSE(ParseHttpRequestPath("GET /metr", &path).ok());
  EXPECT_FALSE(ParseHttpRequestPath("GET ", &path).ok());
  EXPECT_FALSE(ParseHttpRequestPath("GET", &path).ok());
  EXPECT_FALSE(ParseHttpRequestPath("", &path).ok());
  // Missing the HTTP-version field after the path.
  EXPECT_FALSE(ParseHttpRequestPath("GET /metrics\r\n", &path).ok());
  // Empty request-target.
  EXPECT_FALSE(ParseHttpRequestPath("GET  HTTP/1.1\r\n", &path).ok());
  // Not a GET.
  EXPECT_FALSE(ParseHttpRequestPath("POST /metrics HTTP/1.1\r\n", &path).ok());
  // A garbage greeting (not HTTP at all).
  EXPECT_FALSE(ParseHttpRequestPath("SSH-2.0-OpenSSH_9.6\r\n", &path).ok());
}

/// Sends `raw` over a fresh connection — optionally one byte per send with
/// a tiny pause, the short-read torture case — and returns the response.
std::string RawRequest(uint16_t port, const std::string& raw,
                       bool byte_at_a_time) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  if (byte_at_a_time) {
    for (char c : raw) {
      if (::send(fd, &c, 1, 0) != 1) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  } else {
    (void)!::send(fd, raw.data(), raw.size(), 0);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ByteAtATimeClientStillGetsServed) {
  MetricsHttpServer server;
  ASSERT_OK(server.Start(0));
  // The request-line arrives one byte per read; the server must keep
  // reading until the line is complete instead of parsing a prefix.
  std::string response = RawRequest(
      server.port(),
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
      /*byte_at_a_time=*/true);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");
  server.Stop();
}

TEST(MetricsHttpServerTest, TruncatedAndGarbageRequestsGet400) {
  MetricsHttpServer server;
  ASSERT_OK(server.Start(0));
  // Connection closed mid-request-line: never serveable, never "/" either.
  std::string truncated = RawRequest(server.port(), "GET /metr",
                                     /*byte_at_a_time=*/false);
  EXPECT_NE(truncated.find("400"), std::string::npos) << truncated;
  // A non-HTTP greeting.
  std::string garbage = RawRequest(server.port(), "hello\r\n",
                                   /*byte_at_a_time=*/false);
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;
  // An empty connection (client connects and immediately closes).
  std::string empty = RawRequest(server.port(), "",
                                 /*byte_at_a_time=*/false);
  EXPECT_NE(empty.find("400"), std::string::npos) << empty;
  server.Stop();
}

TEST(MetricsHttpServerTest, TasksEndpointServesLiveTable) {
  MetricsHttpServer server;
  ASSERT_OK(server.Start(0));
  std::string response = HttpGet(server.port(), "/tasks");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(BodyOf(response).find("\"tasks\""), std::string::npos);
  server.Stop();
}

TEST(MetricsHttpServerTest, StartFailsOnPortInUseAndStopIsIdempotent) {
  MetricsHttpServer a;
  ASSERT_OK(a.Start(0));
  MetricsHttpServer b;
  EXPECT_FALSE(b.Start(a.port()).ok());
  EXPECT_FALSE(b.running());
  a.Stop();
  a.Stop();  // second Stop is a no-op
  EXPECT_FALSE(a.running());
}

}  // namespace
}  // namespace aqua::obs
