// Lifecycle tests for cooperative cancellation: a runaway unmemoized
// Kleene-closure query (the paper's footnote-3 exponential workload) must
// stop within the latency budget when killed, when its deadline expires,
// and when it breaches its memory budget — at 1, 4, and 16 threads — and a
// cancelled fan-out must not leak queued pool tasks. The storm test is the
// TSan target run by scripts/cancel_smoke.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "aqua.h"
#include "exec/thread_pool.h"
#include "obs/query_context.h"
#include "obs/tasks.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua {
namespace {

/// A chain of `depth` nodes named "a" with a final "z": every decomposition
/// of the ambiguous closure below fails only at the very end, so the
/// unmemoized search is Fibonacci in the depth — effectively unbounded for
/// the depths used here. (Same shape as bench_tree_kleene.cc.)
Result<Tree> MakePoisonedChain(ObjectStore& store, size_t depth) {
  Tree t;
  NodeId prev = kInvalidNode;
  for (size_t i = 0; i <= depth; ++i) {
    const char* name = i == depth ? "z" : "a";
    AQUA_ASSIGN_OR_RETURN(
        Oid oid, store.Create("Item", {{"name", Value::String(name)},
                                       {"val", Value::Int(0)}}));
    NodeId node = t.AddNode(NodePayload::Cell(oid));
    if (prev == kInvalidNode) {
      AQUA_RETURN_IF_ERROR(t.SetRoot(node));
    } else {
      AQUA_RETURN_IF_ERROR(t.AddChild(prev, node));
    }
    prev = node;
  }
  return t;
}

/// Fixture: a "chains" collection of poisoned chains under a sentinel root,
/// and the unmemoized-closure plan over it. With `memoize = false` a single
/// chain of depth 40 alone takes (far) longer than any test timeout, so a
/// query over this plan never finishes on its own — it must be cancelled.
class CancelTest : public ::testing::Test {
 protected:
  static constexpr size_t kChains = 32;
  static constexpr size_t kDepth = 40;

  void SetUp() override {
    ASSERT_TRUE(RegisterItemType(db_.store()).ok());
    std::vector<Tree> chains;
    for (size_t i = 0; i < kChains; ++i) {
      auto chain = MakePoisonedChain(db_.store(), kDepth);
      ASSERT_TRUE(chain.ok()) << chain.status();
      chains.push_back(*std::move(chain));
    }
    auto sentinel = db_.store().Create(
        "Item", {{"name", Value::String("root")}, {"val", Value::Int(0)}});
    ASSERT_TRUE(sentinel.ok()) << sentinel.status();
    ASSERT_TRUE(db_.RegisterTree("chains",
                                 Tree::Node(NodePayload::Cell(*sentinel),
                                            chains))
                    .ok());

    auto closure = ParseTreePattern("^[[a(@x) | a(a(@x))]]*@x");
    ASSERT_TRUE(closure.ok()) << closure.status();
    SplitOptions opts;
    opts.match.memoize = false;
    runaway_plan_ = Q::TreeSubSelect(
        Q::TreeSelect(
            Q::ScanTree("chains"),
            Predicate::Not(
                Predicate::AttrEquals("name", Value::String("root")))),
        *closure, opts);
  }

  /// Runs the runaway plan on `threads` workers and, once it shows up in
  /// the task registry, kills it. Returns the wall time from the kill to
  /// the executor returning.
  void RunAndKill(size_t threads) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::atomic<bool> killed{false};
    std::atomic<uint64_t> kill_ns{0};
    std::thread killer([&] {
      obs::TaskRegistry& reg = obs::TaskRegistry::Global();
      while (!killed.load()) {
        for (const obs::TaskRow& row : reg.Snapshot()) {
          kill_ns.store(obs::QueryContext::NowNs());
          if (reg.Kill(row.id).ok()) {
            killed.store(true);
            return;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    Result<Datum> out = exec.Execute(runaway_plan_);
    uint64_t done_ns = obs::QueryContext::NowNs();
    killed.store(true);
    killer.join();

    ASSERT_FALSE(out.ok()) << "runaway query finished?!";
    EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
        << out.status().ToString();
    EXPECT_NE(out.status().message().find("was killed"), std::string::npos)
        << out.status().ToString();
    // Kill-to-return latency: the 50 ms acceptance budget.
    ASSERT_GT(kill_ns.load(), 0u);
    double latency_ms =
        static_cast<double>(done_ns - kill_ns.load()) / 1e6;
    EXPECT_LT(latency_ms, 50.0) << "threads=" << threads;
    ExpectNoLeakedPoolTasks();
    // The registry entry is gone: the guard unregistered on unwind.
    EXPECT_EQ(obs::TaskRegistry::Global().active(), 0u);
  }

  /// A cancelled fan-out must consume (not orphan) every queued morsel
  /// task: helpers observe the claim cursor / cancel flag and return.
  void ExpectNoLeakedPoolTasks() {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
    while (exec::ThreadPool::Shared().pending() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(exec::ThreadPool::Shared().pending(), 0u);
  }

  Database db_;
  PlanRef runaway_plan_;
};

TEST_F(CancelTest, KillReturnsWithin50MsOneThread) { RunAndKill(1); }
TEST_F(CancelTest, KillReturnsWithin50MsFourThreads) { RunAndKill(4); }
TEST_F(CancelTest, KillReturnsWithin50MsSixteenThreads) { RunAndKill(16); }

TEST_F(CancelTest, DeadlineExpiresWithin50Ms) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    exec.set_timeout_ms(20);
    uint64_t t0 = obs::QueryContext::NowNs();
    Result<Datum> out = exec.Execute(runaway_plan_);
    double wall_ms =
        static_cast<double>(obs::QueryContext::NowNs() - t0) / 1e6;
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
        << out.status().ToString();
    // 20 ms deadline + 50 ms cancellation budget.
    EXPECT_LT(wall_ms, 70.0) << "threads=" << threads;
    ExpectNoLeakedPoolTasks();
  }
}

TEST_F(CancelTest, MemLimitUnwindsAsCancelled) {
  Executor exec(&db_);
  exec.set_threads(4);
  // Well below the ~63 KB the materialized chain forest charges, so the
  // breach is certain regardless of matcher scratch size.
  exec.set_mem_limit_bytes(32 * 1024);
  Result<Datum> out = exec.Execute(runaway_plan_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("memory limit"), std::string::npos)
      << out.status().ToString();
  ExpectNoLeakedPoolTasks();
}

TEST_F(CancelTest, StatsReportLifecycleCounters) {
  Executor exec(&db_);
  exec.set_threads(4);
  exec.set_timeout_ms(20);
  (void)exec.Execute(runaway_plan_);
  EXPECT_GT(exec.stats().query_id, 0u);
  EXPECT_GT(exec.stats().cpu_ns, 0u);
  EXPECT_GT(exec.stats().mem_peak_bytes, 0u);
}

/// Serial-vs-parallel byte-equality is not disturbed by the lifecycle
/// plumbing: an uncancelled query returns identical results at any thread
/// count, with a deadline armed but never hit.
TEST_F(CancelTest, UncancelledQueriesStayByteIdentical) {
  auto finite = ParseTreePattern("a(a(?*))");
  ASSERT_TRUE(finite.ok()) << finite.status();
  PlanRef plan = Q::TreeSubSelect(
      Q::TreeSelect(Q::ScanTree("chains"),
                    Predicate::Not(
                        Predicate::AttrEquals("name", Value::String("root")))),
      *finite);
  LabelFn label = AttrLabelFn(&db_.store(), "name");
  std::string baseline;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    exec.set_timeout_ms(60000);  // armed, never hit
    Result<Datum> out = exec.Execute(plan);
    ASSERT_TRUE(out.ok()) << out.status();
    std::string rendered = out->ToString(label);
    if (threads == 1) {
      baseline = rendered;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(rendered, baseline) << "threads=" << threads;
    }
  }
}

/// The TSan target (scripts/cancel_smoke.sh): several runaway executions
/// hammered concurrently by a killer thread issuing `Kill` against
/// whatever is in flight, plus deadline expiries, for ~1.5 s. Clean under
/// TSan means the cancel/checkpoint/accounting paths are race-free.
TEST_F(CancelTest, CancellationStorm) {
  constexpr int kRunners = 4;
  std::atomic<bool> stop{false};
  std::atomic<bool> runners_done{false};
  std::atomic<int> cancelled_runs{0};

  // The killer must outlive the runners: a runner can enter one final
  // Execute after `stop` flips, and without a timeout that runaway query
  // only ends when someone kills it.
  std::thread killer([&] {
    while (!runners_done.load()) {
      for (const obs::TaskRow& row : obs::TaskRegistry::Global().Snapshot()) {
        (void)obs::TaskRegistry::Global().Kill(row.id);
      }
      obs::TaskRegistry::Global().EnforceLimits();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::thread> runners;
  for (int r = 0; r < kRunners; ++r) {
    runners.emplace_back([&, r] {
      while (!stop.load()) {
        Executor exec(&db_);
        exec.set_threads(1 + (r % 4));
        if (r % 2 == 0) exec.set_timeout_ms(5);
        Result<Datum> out = exec.Execute(runaway_plan_);
        if (!out.ok() && (out.status().IsCancelled() ||
                          out.status().IsDeadlineExceeded())) {
          cancelled_runs.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (std::thread& t : runners) t.join();
  runners_done.store(true);
  killer.join();

  EXPECT_GT(cancelled_runs.load(), 0);
  ExpectNoLeakedPoolTasks();
  EXPECT_EQ(obs::TaskRegistry::Global().active(), 0u);
}

}  // namespace
}  // namespace aqua
