#include "obs/tasks.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace aqua::obs {

namespace {

/// One-line form of the (indented, multi-line) normalized plan.
std::string FlattenPlan(const std::string& text) {
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

TaskRow RowOf(const QueryContext& q, uint64_t now_ns) {
  TaskRow row;
  row.id = q.id();
  row.fingerprint = q.fingerprint();
  row.plan = FlattenPlan(q.plan_text());
  row.elapsed_ns = now_ns > q.started_ns() ? now_ns - q.started_ns() : 0;
  uint64_t deadline = q.deadline_ns();
  row.deadline_in_ns = deadline > now_ns ? deadline - now_ns : 0;
  row.cancel_requested = q.cancel_requested();
  row.threads = q.threads();
  row.pinned_epoch = q.pinned_epoch();
  row.current_op = q.current_op();
  row.morsels_done = q.morsels_done();
  row.morsels_total = q.morsels_total();
  row.cpu_ns = q.cpu_ns();
  row.mem_bytes = q.mem_bytes();
  row.mem_peak_bytes = q.mem_peak_bytes();
  row.rows = q.rows();
  row.nodes = q.nodes();
  return row;
}

}  // namespace

TaskRegistry& TaskRegistry::Global() {
  static TaskRegistry* instance = new TaskRegistry();  // leaked
  return *instance;
}

void TaskRegistry::Register(QueryContext* q) {
  if (q == nullptr) return;
  MutexLock lock(mu_);
  tasks_[q->id()] = q;
  AQUA_OBS_GAUGE_SET("tasks.active", static_cast<int64_t>(tasks_.size()));
}

void TaskRegistry::Unregister(QueryContext* q) {
  if (q == nullptr) return;
  MutexLock lock(mu_);
  tasks_.erase(q->id());
  AQUA_OBS_GAUGE_SET("tasks.active", static_cast<int64_t>(tasks_.size()));
}

std::vector<TaskRow> TaskRegistry::Snapshot() const {
  uint64_t now = QueryContext::NowNs();
  std::vector<TaskRow> rows;
  MutexLock lock(mu_);
  rows.reserve(tasks_.size());
  for (const auto& [id, q] : tasks_) rows.push_back(RowOf(*q, now));
  return rows;
}

Status TaskRegistry::Kill(uint64_t id, std::string_view reason) {
  MutexLock lock(mu_);
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("no in-flight query " + std::to_string(id));
  }
  it->second->Cancel(StatusCode::kCancelled, reason);
  AQUA_OBS_COUNT("tasks.kills", 1);
  return Status::OK();
}

size_t TaskRegistry::EnforceLimits() {
  uint64_t now = QueryContext::NowNs();
  size_t cancelled = 0;
  {
    MutexLock lock(mu_);
    for (const auto& [id, q] : tasks_) {
      if (q->cancel_requested()) continue;
      uint64_t deadline = q->deadline_ns();
      if (deadline != 0 && now >= deadline) {
        q->Cancel(StatusCode::kDeadlineExceeded,
                  "exceeded its deadline (watchdog)");
        ++cancelled;
      } else if (q->mem_limit_bytes() != 0 &&
                 q->mem_bytes() > q->mem_limit_bytes()) {
        q->Cancel(StatusCode::kCancelled,
                  "exceeded its memory limit (watchdog)");
        ++cancelled;
      }
    }
  }
  if (cancelled > 0) AQUA_OBS_COUNT("tasks.watchdog_cancels", cancelled);
  return cancelled;
}

size_t TaskRegistry::active() const {
  MutexLock lock(mu_);
  return tasks_.size();
}

std::string TaskRegistry::ToText() const {
  std::vector<TaskRow> rows = Snapshot();
  std::string out =
      "id      elapsed_ms  cpu_ms     mem_kb     peak_kb    epoch  morsels "
      "    op               plan\n";
  for (const TaskRow& r : rows) {
    char buf[176];
    std::snprintf(buf, sizeof(buf),
                  "%-7llu %-11.1f %-10.1f %-10llu %-10llu %-6llu %5zu/%-5zu "
                  "%-16s ",
                  static_cast<unsigned long long>(r.id),
                  static_cast<double>(r.elapsed_ns) / 1e6,
                  static_cast<double>(r.cpu_ns) / 1e6,
                  static_cast<unsigned long long>(r.mem_bytes / 1024),
                  static_cast<unsigned long long>(r.mem_peak_bytes / 1024),
                  static_cast<unsigned long long>(r.pinned_epoch),
                  r.morsels_done, r.morsels_total,
                  r.current_op != nullptr ? r.current_op : "-");
    out += buf;
    out += r.plan;
    if (r.cancel_requested) out += "  [cancelling]";
    out += '\n';
  }
  if (rows.empty()) out += "(no queries in flight)\n";
  return out;
}

std::string TaskRegistry::ToJson() const {
  std::vector<TaskRow> rows = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("tasks").BeginArray();
  for (const TaskRow& r : rows) {
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    w.BeginObject();
    w.Key("id").Uint(r.id);
    w.Key("fingerprint").String(fp);
    w.Key("plan").String(r.plan);
    w.Key("elapsed_ns").Uint(r.elapsed_ns);
    w.Key("deadline_in_ns").Uint(r.deadline_in_ns);
    w.Key("cancel_requested").Bool(r.cancel_requested);
    w.Key("threads").Uint(r.threads);
    w.Key("pinned_epoch").Uint(r.pinned_epoch);
    w.Key("current_op").String(r.current_op != nullptr ? r.current_op : "");
    w.Key("morsels_done").Uint(r.morsels_done);
    w.Key("morsels_total").Uint(r.morsels_total);
    w.Key("cpu_ns").Uint(r.cpu_ns);
    w.Key("mem_bytes").Uint(r.mem_bytes);
    w.Key("mem_peak_bytes").Uint(r.mem_peak_bytes);
    w.Key("rows").Uint(r.rows);
    w.Key("nodes").Uint(r.nodes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace aqua::obs
