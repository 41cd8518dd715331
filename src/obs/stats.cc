#include "obs/stats.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/result.h"
#include "obs/json.h"

namespace aqua::obs {

namespace {

double Ewma(double prev, double obs, uint64_t prev_calls) {
  if (prev_calls == 0) return obs;
  return prev + StatsWarehouse::kAlpha * (obs - prev);
}

/// Preorder of op paths: child indices compare as numbers component by
/// component, and an ancestor's path sorts before its descendants'
/// ("0" < "0.2" < "0.10" < "1").
bool PreorderLess(std::string_view a, std::string_view b) {
  while (!a.empty() && !b.empty()) {
    size_t na = std::min(a.find('.'), a.size());
    size_t nb = std::min(b.find('.'), b.size());
    if (na != nb) return na < nb;  // child indices carry no leading zeros
    int c = a.substr(0, na).compare(b.substr(0, nb));
    if (c != 0) return c < 0;
    a.remove_prefix(std::min(na + 1, a.size()));
    b.remove_prefix(std::min(nb + 1, b.size()));
  }
  return a.empty() && !b.empty();
}

/// The op record for `path` in `row`, inserted at its preorder position
/// when new.
OpStatsRow& OpRecord(PlanRow* row, const std::string& path) {
  auto it = std::lower_bound(
      row->ops.begin(), row->ops.end(), path,
      [](const OpStatsRow& op, const std::string& p) {
        return PreorderLess(op.path, p);
      });
  if (it == row->ops.end() || it->path != path) {
    it = row->ops.insert(it, OpStatsRow{});
    it->path = path;
  }
  return *it;
}

/// Drops least-recently-updated entries until `map` holds at most `cap`;
/// returns how many were dropped.
template <typename Map>
size_t EvictLru(Map* map, size_t cap) {
  size_t evicted = 0;
  while (map->size() > cap) {
    map->erase(std::min_element(
        map->begin(), map->end(), [](const auto& a, const auto& b) {
          return a.second.last_update_seq < b.second.last_update_seq;
        }));
    ++evicted;
  }
  return evicted;
}

// --- save-file fields ------------------------------------------------------

/// A plan's normalized text spans lines; the save file keeps it on one
/// line with `\n` and `\\` escapes.
std::string EscapeText(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out;
}

bool UnescapeText(std::string_view s, std::string* out) {
  out->clear();
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    if (s[i] == 'n') {
      *out += '\n';
    } else if (s[i] == '\\') {
      *out += '\\';
    } else {
      return false;
    }
  }
  return true;
}

bool ParseFp(const std::string& hex, uint64_t* fp) {
  char* end = nullptr;
  *fp = std::strtoull(hex.c_str(), &end, 16);
  return !hex.empty() && end == hex.c_str() + hex.size();
}

/// Candidates-per-probe field: `-` for "never observed" (-1).
bool ParseCpp(const std::string& tok, double* cpp) {
  if (tok == "-") {
    *cpp = -1.0;
    return true;
  }
  char* end = nullptr;
  *cpp = std::strtod(tok.c_str(), &end);
  return !tok.empty() && end == tok.c_str() + tok.size();
}

void WriteCpp(std::ostream& out, double cpp) {
  if (cpp < 0) {
    out << '-';
  } else {
    out << cpp;
  }
}

}  // namespace

std::string PlanRow::OneLineText() const {
  std::string out;
  bool at_line_start = true;
  for (char c : text) {
    if (c == '\n') {
      at_line_start = true;
      continue;
    }
    if (at_line_start) {
      if (c == ' ') continue;
      if (!out.empty()) out += " > ";
      at_line_start = false;
    }
    out += c;
  }
  return out;
}

StatsWarehouse::StatsWarehouse(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

StatsWarehouse& StatsWarehouse::Global() {
  static StatsWarehouse* instance = new StatsWarehouse();  // leaked
  return *instance;
}

void StatsWarehouse::FoldSampleLocked(PlanRow* row, const OpSample& s,
                                      uint64_t seq) {
  const double out = static_cast<double>(s.out_rows);
  const double in = static_cast<double>(s.in_rows);
  const double sel =
      std::min(1.0, out / std::max(in, 1.0));  // observed selectivity
  const double cpp = s.probes > 0 ? static_cast<double>(s.candidates) /
                                        static_cast<double>(s.probes)
                                  : -1.0;

  OpStatsRow& r = OpRecord(row, s.path);
  r.op_name = s.op_name;
  r.node_fp = s.node_fp;
  r.in_rows = Ewma(r.in_rows, in, r.calls);
  r.out_rows = Ewma(r.out_rows, out, r.calls);
  r.wall_ns = Ewma(r.wall_ns, static_cast<double>(s.wall_ns), r.calls);
  r.cpu_ns = Ewma(r.cpu_ns, static_cast<double>(s.cpu_ns), r.calls);
  r.selectivity = Ewma(r.selectivity, sel, r.calls);
  if (cpp >= 0) {
    r.candidates_per_probe =
        r.candidates_per_probe < 0 ? cpp
                                   : Ewma(r.candidates_per_probe, cpp, 1);
  }
  r.calls += 1;

  Learned& l = learned_[s.node_fp];
  l.selectivity = Ewma(l.selectivity, sel, l.calls);
  if (cpp >= 0) {
    l.candidates_per_probe =
        l.candidates_per_probe < 0 ? cpp
                                   : Ewma(l.candidates_per_probe, cpp, 1);
  }
  l.calls += 1;
  l.last_update_seq = seq;
}

void StatsWarehouse::Record(uint64_t fingerprint, std::string_view text,
                            uint64_t wall_ns, uint64_t mem_peak_bytes,
                            StatusCode code, bool store_commit,
                            const std::vector<OpSample>& ops) {
  size_t evicted = 0;
  size_t live = 0;
  {
    MutexLock lock(mu_);
    auto it = rows_.find(fingerprint);
    if (it == rows_.end()) {
      // Make room before inserting so the new row can never be its own
      // eviction victim.
      evicted += EvictLru(&rows_, capacity_ - 1);
      it = rows_.emplace(fingerprint, Entry{}).first;
      it->second.row.fingerprint = fingerprint;
    }
    const uint64_t seq = ++update_seq_;
    it->second.last_update_seq = seq;
    PlanRow& r = it->second.row;
    if (r.calls == 0) {
      r.text = std::string(text);
      r.min_ns = wall_ns;
      r.max_ns = wall_ns;
    } else {
      r.min_ns = std::min(r.min_ns, wall_ns);
      r.max_ns = std::max(r.max_ns, wall_ns);
    }
    ++r.calls;
    r.total_ns += wall_ns;
    r.peak_mem_bytes = std::max(r.peak_mem_bytes, mem_peak_bytes);
    if (code == StatusCode::kCancelled) ++r.cancelled;
    if (code == StatusCode::kDeadlineExceeded) ++r.deadline_exceeded;
    if (store_commit) ++r.store_commits;
    ++r.buckets[Histogram::BucketOf(wall_ns)];
    for (const OpSample& s : ops) FoldSampleLocked(&r, s, seq);
    evicted += EvictLru(&learned_, capacity_);
    live = rows_.size();
  }
  if (!ops.empty()) AQUA_OBS_COUNT("stats.harvests", 1);
  if (evicted > 0) AQUA_OBS_COUNT("stats.evictions", evicted);
  AQUA_OBS_GAUGE_SET("stats.records_live", static_cast<int64_t>(live));
  (void)live;  // unused when obs is compiled out
}

bool StatsWarehouse::LearnedSelectivity(uint64_t node_fp, double* selectivity,
                                        uint64_t* calls) const {
  MutexLock lock(mu_);
  auto it = learned_.find(node_fp);
  if (it == learned_.end()) return false;
  if (selectivity != nullptr) *selectivity = it->second.selectivity;
  if (calls != nullptr) *calls = it->second.calls;
  return true;
}

bool StatsWarehouse::LearnedCandidates(uint64_t node_fp,
                                       double* candidates_per_probe,
                                       uint64_t* calls) const {
  MutexLock lock(mu_);
  auto it = learned_.find(node_fp);
  if (it == learned_.end() || it->second.candidates_per_probe < 0) {
    return false;
  }
  if (candidates_per_probe != nullptr) {
    *candidates_per_probe = it->second.candidates_per_probe;
  }
  if (calls != nullptr) *calls = it->second.calls;
  return true;
}

std::vector<PlanRow> StatsWarehouse::Rows() const {
  std::vector<PlanRow> rows;
  {
    MutexLock lock(mu_);
    rows.reserve(rows_.size());
    for (const auto& [fp, e] : rows_) rows.push_back(e.row);
  }
  std::sort(rows.begin(), rows.end(), [](const PlanRow& a, const PlanRow& b) {
    return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                    : a.fingerprint < b.fingerprint;
  });
  return rows;
}

PlanRow StatsWarehouse::Row(uint64_t fingerprint) const {
  MutexLock lock(mu_);
  auto it = rows_.find(fingerprint);
  if (it != rows_.end()) return it->second.row;
  PlanRow absent;
  absent.fingerprint = fingerprint;
  return absent;
}

std::string StatsWarehouse::ToJson(size_t max_rows) const {
  std::vector<PlanRow> rows = Rows();
  if (rows.size() > max_rows) rows.resize(max_rows);
  JsonWriter w;
  w.BeginObject();
  w.Key("plans").BeginArray();
  for (const PlanRow& r : rows) {
    w.BeginObject();
    w.Key("fingerprint").String(FingerprintHex(r.fingerprint));
    w.Key("plan").String(r.OneLineText());
    w.Key("calls").Uint(r.calls);
    w.Key("total_ns").Uint(r.total_ns);
    w.Key("min_ns").Uint(r.min_ns);
    w.Key("max_ns").Uint(r.max_ns);
    w.Key("peak_mem_bytes").Uint(r.peak_mem_bytes);
    w.Key("cancelled").Uint(r.cancelled);
    w.Key("deadline_exceeded").Uint(r.deadline_exceeded);
    w.Key("store_commits").Uint(r.store_commits);
    w.Key("mean_ns").Double(r.mean_ns());
    w.Key("p50_ns").Double(r.p50_ns());
    w.Key("p95_ns").Double(r.p95_ns());
    w.Key("p99_ns").Double(r.p99_ns());
    w.Key("ops").BeginArray();
    for (const OpStatsRow& op : r.ops) {
      w.BeginObject();
      w.Key("path").String(op.path);
      w.Key("op").String(op.op_name);
      w.Key("node").String(FingerprintHex(op.node_fp));
      w.Key("calls").Uint(op.calls);
      w.Key("in_rows").Double(op.in_rows);
      w.Key("out_rows").Double(op.out_rows);
      w.Key("selectivity").Double(op.selectivity);
      if (op.candidates_per_probe >= 0) {
        w.Key("candidates_per_probe").Double(op.candidates_per_probe);
      }
      w.Key("wall_ns").Double(op.wall_ns);
      w.Key("cpu_ns").Double(op.cpu_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

Status StatsWarehouse::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open stats file for write: " +
                                   path);
  }
  out << "aqua-stats v2\n";
  {
    MutexLock lock(mu_);
    for (const auto& [fp, e] : rows_) {
      const PlanRow& r = e.row;
      out << "plan " << FingerprintHex(fp) << ' ' << r.calls << ' ' << r.total_ns
          << ' ' << r.min_ns << ' ' << r.max_ns << ' ' << r.peak_mem_bytes
          << ' ' << r.cancelled << ' ' << r.deadline_exceeded << ' '
          << r.store_commits;
      for (uint64_t b : r.buckets) out << ' ' << b;
      out << ' ' << EscapeText(r.text) << '\n';
      for (const OpStatsRow& op : r.ops) {
        out << "record " << FingerprintHex(fp) << ' ' << op.path << ' '
            << op.op_name << ' ' << FingerprintHex(op.node_fp) << ' ' << op.calls
            << ' ' << op.in_rows << ' ' << op.out_rows << ' ' << op.wall_ns
            << ' ' << op.cpu_ns << ' ' << op.selectivity << ' ';
        WriteCpp(out, op.candidates_per_probe);
        out << '\n';
      }
    }
    for (const auto& [fp, l] : learned_) {
      out << "learned " << FingerprintHex(fp) << ' ' << l.calls << ' '
          << l.selectivity << ' ';
      WriteCpp(out, l.candidates_per_probe);
      out << '\n';
    }
  }
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Status StatsWarehouse::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open stats file: " + path);
  std::string header;
  if (!std::getline(in, header) ||
      (header != "aqua-stats v2" && header != "aqua-stats v1")) {
    return Status::ParseError("bad stats file header: " + path);
  }
  // Parse the whole file first and merge only once it all parsed.
  std::map<uint64_t, PlanRow> rows;
  std::map<uint64_t, Learned> learned;
  std::string line;
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    bool ok = false;
    if (kind == "plan") {
      std::string fp_hex;
      PlanRow r;
      ss >> fp_hex >> r.calls >> r.total_ns >> r.min_ns >> r.max_ns >>
          r.peak_mem_bytes >> r.cancelled >> r.deadline_exceeded >>
          r.store_commits;
      for (uint64_t& b : r.buckets) ss >> b;
      std::string text;
      ok = ss && ParseFp(fp_hex, &r.fingerprint);
      if (ok) {
        std::getline(ss, text);
        if (!text.empty() && text[0] == ' ') text.erase(0, 1);
        ok = UnescapeText(text, &r.text);
      }
      if (ok) {
        PlanRow& row = rows[r.fingerprint];
        r.ops = std::move(row.ops);  // records may precede their plan line
        row = std::move(r);
      }
    } else if (kind == "record") {
      std::string plan_hex;
      std::string node_hex;
      std::string cpp_tok;
      std::string op_path;
      OpStatsRow op;
      ss >> plan_hex >> op_path >> op.op_name >> node_hex >> op.calls >>
          op.in_rows >> op.out_rows >> op.wall_ns >> op.cpu_ns >>
          op.selectivity >> cpp_tok;
      uint64_t plan_fp = 0;
      ok = ss && ParseFp(plan_hex, &plan_fp) &&
           ParseFp(node_hex, &op.node_fp) &&
           ParseCpp(cpp_tok, &op.candidates_per_probe);
      if (ok) {
        PlanRow& row = rows[plan_fp];
        row.fingerprint = plan_fp;
        op.path = op_path;
        OpRecord(&row, op_path) = std::move(op);
      }
    } else if (kind == "learned") {
      std::string node_hex;
      std::string cpp_tok;
      Learned l;
      uint64_t node_fp = 0;
      ss >> node_hex >> l.calls >> l.selectivity >> cpp_tok;
      ok = ss && ParseFp(node_hex, &node_fp) &&
           ParseCpp(cpp_tok, &l.candidates_per_probe);
      if (ok) learned[node_fp] = l;
    }
    if (!ok) {
      return Status::ParseError("bad stats line " + std::to_string(lineno) +
                                " in " + path);
    }
  }

  size_t evicted = 0;
  size_t live = 0;
  {
    MutexLock lock(mu_);
    for (auto& [fp, r] : rows) {
      Entry& e = rows_[fp];
      e.row = std::move(r);
      e.last_update_seq = ++update_seq_;
    }
    for (auto& [fp, l] : learned) {
      l.last_update_seq = ++update_seq_;
      learned_[fp] = l;
    }
    evicted = EvictLru(&rows_, capacity_) + EvictLru(&learned_, capacity_);
    live = rows_.size();
  }
  if (evicted > 0) AQUA_OBS_COUNT("stats.evictions", evicted);
  AQUA_OBS_GAUGE_SET("stats.records_live", static_cast<int64_t>(live));
  (void)live;  // unused when obs is compiled out
  return Status::OK();
}

void StatsWarehouse::Reset() {
  MutexLock lock(mu_);
  rows_.clear();
  learned_.clear();
  AQUA_OBS_GAUGE_SET("stats.records_live", 0);
}

size_t StatsWarehouse::size() const {
  MutexLock lock(mu_);
  return rows_.size();
}

namespace {

/// `path`, or `AQUA_STATS_FILE` when `path` is empty.
Result<std::string> ResolveStatsPath(const std::string& path) {
  if (!path.empty()) return path;
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("AQUA_STATS_FILE");
  if (env == nullptr || env[0] == '\0') {
    return Status::InvalidArgument(
        "no stats file: pass a path or set AQUA_STATS_FILE");
  }
  return std::string(env);
}

}  // namespace

Status SaveStats(const std::string& path) {
  AQUA_ASSIGN_OR_RETURN(std::string resolved, ResolveStatsPath(path));
  return StatsWarehouse::Global().Save(resolved);
}

Status LoadStats(const std::string& path) {
  AQUA_ASSIGN_OR_RETURN(std::string resolved, ResolveStatsPath(path));
  return StatsWarehouse::Global().Load(resolved);
}

}  // namespace aqua::obs
