#include "obs/export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "obs/tasks.h"

namespace aqua::obs {

namespace {

/// `pattern.nfa_steps` -> `<prefix>pattern_nfa_steps` (metric names may
/// only contain [a-zA-Z0-9_:]).
std::string MangleName(const std::string& prefix, std::string_view name) {
  std::string out = prefix;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Inclusive integer upper bound of log-scale bucket `b` as an `le` label
/// value: 0, 1, 3, 7, 15, ...
std::string BucketLe(size_t b) {
  if (b == 0) return "0";
  if (b >= 64) return "+Inf";  // 2^64 - 1 covers the whole range anyway
  return std::to_string((uint64_t{1} << b) - 1);
}

void AppendHelpType(std::string* out, const std::string& name,
                    const char* type, const std::string& help) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

}  // namespace

std::string ToOpenMetrics(const Snapshot& snap,
                          const OpenMetricsOptions& opts) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    std::string m = MangleName(opts.prefix, name);
    AppendHelpType(&out, m, "counter", "registry counter " + name);
    out += m + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    std::string m = MangleName(opts.prefix, name);
    AppendHelpType(&out, m, "gauge", "registry gauge " + name);
    out += m + " " + std::to_string(value) + "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    std::string m = MangleName(opts.prefix, h.name);
    AppendHelpType(&out, m, "histogram",
                   "registry log-scale histogram " + h.name);
    uint64_t cum = 0;
    for (const auto& [bucket, cnt] : h.buckets) {
      cum += cnt;
      std::string le = BucketLe(bucket);
      if (le == "+Inf") continue;  // folded into the +Inf bucket below
      out += m + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
    }
    out += m + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += m + "_sum " + std::to_string(h.sum) + "\n";
    out += m + "_count " + std::to_string(h.count) + "\n";
  }
  if (opts.plans != nullptr) {
    constexpr size_t kMaxSeries = 50;
    std::vector<PlanRow> rows = opts.plans->Rows();
    // (label, record) of the top op records across all plans, by EWMA wall
    // time.
    std::vector<std::pair<std::string, const OpStatsRow*>> ops;
    for (const PlanRow& r : rows) {
      for (const OpStatsRow& op : r.ops) {
        ops.emplace_back("{plan=\"" + FingerprintHex(r.fingerprint) +
                             "\",path=\"" + op.path + "\",op=\"" +
                             op.op_name + "\"}",
                         &op);
      }
    }
    std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
      return a.second->wall_ns != b.second->wall_ns
                 ? a.second->wall_ns > b.second->wall_ns
                 : a.first < b.first;
    });
    if (ops.size() > kMaxSeries) ops.resize(kMaxSeries);
    // The top rows by total time (`ops` points into all of `rows`).
    std::span<const PlanRow> top(rows.data(),
                                 std::min(rows.size(), kMaxSeries));

    auto digest_label = [](const PlanRow& r) {
      return "{digest=\"" + FingerprintHex(r.fingerprint) + "\"}";
    };
    std::string calls = MangleName(opts.prefix, "digest_calls");
    AppendHelpType(&out, calls, "counter",
                   "executions per normalized-plan digest");
    for (const PlanRow& r : top) {
      out += calls + "_total" + digest_label(r) + " " +
             std::to_string(r.calls) + "\n";
    }
    std::string ns = MangleName(opts.prefix, "digest_ns");
    AppendHelpType(&out, ns, "counter",
                   "total wall nanoseconds per normalized-plan digest");
    for (const PlanRow& r : top) {
      out += ns + "_total" + digest_label(r) + " " +
             std::to_string(r.total_ns) + "\n";
    }
    struct Q {
      const char* suffix;
      double (PlanRow::*fn)() const;
    };
    for (const Q& q : {Q{"digest_p50_ns", &PlanRow::p50_ns},
                       Q{"digest_p95_ns", &PlanRow::p95_ns},
                       Q{"digest_p99_ns", &PlanRow::p99_ns}}) {
      std::string name = MangleName(opts.prefix, q.suffix);
      AppendHelpType(&out, name, "gauge",
                     "estimated latency quantile per digest (ns)");
      for (const PlanRow& r : top) {
        char val[32];
        std::snprintf(val, sizeof(val), "%.1f", (r.*q.fn)());
        out += name + digest_label(r) + " " + val + "\n";
      }
    }

    std::string op_calls = MangleName(opts.prefix, "stats_op_calls");
    AppendHelpType(&out, op_calls, "counter",
                   "harvests folded into each per-op stats record");
    for (const auto& [label, rec] : ops) {
      out += op_calls + "_total" + label + " " + std::to_string(rec->calls) +
             "\n";
    }
    struct G {
      const char* suffix;
      const char* help;
      double OpStatsRow::*field;
    };
    for (const G& g :
         {G{"stats_op_out_rows", "EWMA observed output cardinality per op",
            &OpStatsRow::out_rows},
          G{"stats_op_selectivity",
            "EWMA observed selectivity (out/in) per op",
            &OpStatsRow::selectivity},
          G{"stats_op_wall_ns", "EWMA wall nanoseconds per op",
            &OpStatsRow::wall_ns}}) {
      std::string name = MangleName(opts.prefix, g.suffix);
      AppendHelpType(&out, name, "gauge", g.help);
      for (const auto& [label, rec] : ops) {
        char val[32];
        std::snprintf(val, sizeof(val), "%.3f", rec->*g.field);
        out += name + label + " " + val + "\n";
      }
    }
    std::string cpp = MangleName(opts.prefix, "stats_op_candidates_per_probe");
    AppendHelpType(&out, cpp, "gauge",
                   "EWMA observed index candidates per probe (indexed ops)");
    for (const auto& [label, rec] : ops) {
      if (rec->candidates_per_probe < 0) continue;
      char val[32];
      std::snprintf(val, sizeof(val), "%.3f", rec->candidates_per_probe);
      out += cpp + label + " " + val + "\n";
    }
  }
  out += "# EOF\n";
  return out;
}

namespace {

struct Family {
  std::string type;
  // Histogram bookkeeping.
  double last_le = -1.0;
  uint64_t last_bucket_count = 0;
  bool saw_inf = false;
  bool has_bucket = false;
  uint64_t inf_count = 0;
  uint64_t count_value = 0;
  bool has_count = false;
};

Status Fail(size_t line_no, const std::string& msg) {
  return Status::InvalidArgument("openmetrics line " +
                                 std::to_string(line_no) + ": " + msg);
}

}  // namespace

Status CheckOpenMetrics(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("openmetrics: empty body");
  std::map<std::string, Family> families;
  bool saw_eof = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      return Fail(line_no + 1, "final line not newline-terminated");
    }
    std::string line(text.substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (saw_eof) return Fail(line_no, "content after # EOF");
    if (line.empty()) return Fail(line_no, "empty line");
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# ", 0) == 0) {
      // "# HELP name text" / "# TYPE name type" / "# UNIT name unit"
      size_t sp1 = line.find(' ', 2);
      if (sp1 == std::string::npos) return Fail(line_no, "malformed comment");
      std::string keyword = line.substr(2, sp1 - 2);
      size_t sp2 = line.find(' ', sp1 + 1);
      if (keyword == "TYPE") {
        if (sp2 == std::string::npos) return Fail(line_no, "TYPE without type");
        std::string name = line.substr(sp1 + 1, sp2 - sp1 - 1);
        std::string type = line.substr(sp2 + 1);
        if (families.count(name) != 0 && !families[name].type.empty()) {
          return Fail(line_no, "duplicate TYPE for " + name);
        }
        families[name].type = type;
      } else if (keyword != "HELP" && keyword != "UNIT") {
        return Fail(line_no, "unknown comment keyword " + keyword);
      }
      continue;
    }
    // Sample: name[{labels}] value [timestamp]
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos || name_end == 0) {
      return Fail(line_no, "malformed sample");
    }
    std::string name = line.substr(0, name_end);
    std::string labels;
    size_t value_pos = name_end;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      if (close == std::string::npos) return Fail(line_no, "unclosed labels");
      labels = line.substr(name_end + 1, close - name_end - 1);
      value_pos = close + 1;
    }
    while (value_pos < line.size() && line[value_pos] == ' ') ++value_pos;
    if (value_pos >= line.size()) return Fail(line_no, "sample without value");
    std::string value_str = line.substr(value_pos);
    size_t sp = value_str.find(' ');
    if (sp != std::string::npos) value_str = value_str.substr(0, sp);
    char* end = nullptr;
    double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str()) return Fail(line_no, "non-numeric value");

    // Resolve the sample to a declared family.
    std::string family_name;
    std::string suffix;
    for (const char* s : {"_total", "_bucket", "_sum", "_count", "_created"}) {
      if (name.size() > std::strlen(s) &&
          name.compare(name.size() - std::strlen(s), std::string::npos, s) ==
              0) {
        std::string base = name.substr(0, name.size() - std::strlen(s));
        if (families.count(base) != 0) {
          family_name = base;
          suffix = s;
          break;
        }
      }
    }
    if (family_name.empty() && families.count(name) != 0) {
      family_name = name;
    }
    if (family_name.empty()) {
      return Fail(line_no, "sample " + name + " has no preceding TYPE");
    }
    Family& fam = families[family_name];
    if (fam.type.empty()) {
      return Fail(line_no, "sample " + name + " before TYPE line");
    }
    if (fam.type == "counter") {
      if (suffix != "_total" && suffix != "_created") {
        return Fail(line_no,
                    "counter sample " + name + " must end in _total");
      }
      if (value < 0) return Fail(line_no, "negative counter " + name);
    } else if (fam.type == "histogram") {
      if (suffix == "_bucket") {
        size_t le_pos = labels.find("le=\"");
        if (le_pos == std::string::npos) {
          return Fail(line_no, "histogram bucket without le label");
        }
        size_t le_end = labels.find('"', le_pos + 4);
        std::string le = labels.substr(le_pos + 4, le_end - le_pos - 4);
        double le_val = le == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(le.c_str(), nullptr);
        if (fam.has_bucket && le_val <= fam.last_le) {
          return Fail(line_no, "non-increasing le bounds in " + family_name);
        }
        if (fam.has_bucket &&
            static_cast<uint64_t>(value) < fam.last_bucket_count) {
          return Fail(line_no,
                      "non-monotone bucket counts in " + family_name);
        }
        if (fam.saw_inf) {
          return Fail(line_no, "bucket after +Inf in " + family_name);
        }
        fam.has_bucket = true;
        fam.last_le = le_val;
        fam.last_bucket_count = static_cast<uint64_t>(value);
        if (std::isinf(le_val)) {
          fam.saw_inf = true;
          fam.inf_count = static_cast<uint64_t>(value);
        }
      } else if (suffix == "_count") {
        fam.has_count = true;
        fam.count_value = static_cast<uint64_t>(value);
      } else if (suffix != "_sum" && suffix != "_created") {
        return Fail(line_no, "unexpected histogram sample " + name);
      }
    } else if (fam.type == "gauge") {
      if (!suffix.empty() && suffix != "_total") {
        // A gauge sample is the bare family name; `_total` here would mean
        // we mis-resolved a counter — reject to be safe.
        return Fail(line_no, "unexpected gauge sample " + name);
      }
    }
  }
  if (!saw_eof) return Status::InvalidArgument("openmetrics: missing # EOF");
  for (const auto& [name, fam] : families) {
    if (fam.type == "histogram" && fam.has_bucket) {
      if (!fam.saw_inf) {
        return Status::InvalidArgument("openmetrics: histogram " + name +
                                       " missing +Inf bucket");
      }
      if (fam.has_count && fam.inf_count != fam.count_value) {
        return Status::InvalidArgument("openmetrics: histogram " + name +
                                       " +Inf bucket != _count");
      }
    }
  }
  return Status::OK();
}

Status ParseHttpRequestPath(std::string_view req, std::string* path) {
  size_t line_end = req.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("truncated request line");
  }
  std::string_view line = req.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) {
    return Status::InvalidArgument("only GET is supported");
  }
  size_t sp = line.find(' ', 4);
  if (sp == std::string_view::npos || sp == 4) {
    return Status::InvalidArgument("request line missing HTTP version");
  }
  *path = std::string(line.substr(4, sp - 4));
  return Status::OK();
}

Status MetricsHttpServer::Start(uint16_t port) {
  if (running()) return Status::InvalidArgument("server already running");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::InvalidArgument(std::string("socket: ") +
                                   std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::InvalidArgument(std::string("bind 127.0.0.1:") +
                                   std::to_string(port) + ": " +
                                   std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::InvalidArgument(std::string("listen: ") +
                                   std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_.store(fd);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
}

void MetricsHttpServer::AcceptLoop() {
  for (;;) {
    int lfd = listen_fd_.load();
    if (lfd < 0) return;
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener was shut down (Stop) or failed hard
    }
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    // Read until the end of the request headers (one request per
    // connection; Prometheus scrapes this way with `Connection: close`).
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < 16 * 1024) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<size_t>(n));
    }
    // A short/partial read (client died mid-request, or sent garbage) must
    // not be mistaken for `GET /`: parse strictly and answer 400.
    std::string path;
    std::string response;
    if (ParseHttpRequestPath(req, &path).ok()) {
      response = Respond(path);
    } else {
      std::string body = "bad request\n";
      response =
          "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; "
          "charset=utf-8\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
          body;
    }
    size_t off = 0;
    while (off < response.size()) {
      ssize_t n = ::send(fd, response.data() + off, response.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(fd);
  }
}

std::string MetricsHttpServer::Respond(const std::string& path) const {
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  std::string status_line = "HTTP/1.1 200 OK";
  if (path == "/metrics") {
    OpenMetricsOptions opts;
    opts.plans = &StatsWarehouse::Global();
    body = ToOpenMetrics(Registry::Global().Snap(), opts);
    content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
  } else if (path == "/plans") {
    body = StatsWarehouse::Global().ToJson();
    content_type = "application/json";
  } else if (path == "/flight") {
    body = FlightRecorder::Global().ToJson();
    content_type = "application/json";
  } else if (path == "/tasks") {
    body = TaskRegistry::Global().ToJson();
    content_type = "application/json";
  } else if (path == "/healthz" || path == "/") {
    body = "ok\n";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found\n";
  }
  return status_line + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

}  // namespace aqua::obs
