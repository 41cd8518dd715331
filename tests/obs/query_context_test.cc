#include "obs/query_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/status.h"

namespace aqua::obs {
namespace {

TEST(QueryContextTest, IdsAreProcessUniqueAndMonotonic) {
  QueryContext a;
  QueryContext b;
  EXPECT_GT(a.id(), 0u);
  EXPECT_GT(b.id(), a.id());
}

TEST(QueryContextTest, CheckPointIsOkWithoutLimits) {
  QueryContext q;
  EXPECT_TRUE((q.CheckPoint()).ok());
  EXPECT_FALSE(q.cancel_requested());
  EXPECT_TRUE((q.CancelStatus()).ok());
}

TEST(QueryContextTest, CancelFirstCallerWins) {
  QueryContext q;
  q.Cancel(StatusCode::kCancelled, "was killed");
  q.Cancel(StatusCode::kDeadlineExceeded, "too late, already dead");
  EXPECT_TRUE(q.cancel_requested());
  Status st = q.CancelStatus();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("was killed"), std::string::npos)
      << st.ToString();
  // The id is baked into the message for log correlation.
  EXPECT_NE(st.message().find(std::to_string(q.id())), std::string::npos);
  // CheckPoint reports the same status from now on.
  EXPECT_EQ(q.CheckPoint().code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, CancelWithOkCodeIsIgnored) {
  QueryContext q;
  q.Cancel(StatusCode::kOk, "not a cancellation");
  EXPECT_FALSE(q.cancel_requested());
  EXPECT_TRUE((q.CheckPoint()).ok());
}

TEST(QueryContextTest, DeadlineExpiryBecomesDeadlineExceeded) {
  QueryContext q;
  q.set_deadline_after_ns(1);  // effectively already expired
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Status st = q.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_TRUE(q.cancel_requested());
}

TEST(QueryContextTest, DeadlineZeroDisarms) {
  QueryContext q;
  q.set_deadline_after_ns(1);
  q.set_deadline_after_ns(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE((q.CheckPoint()).ok());
}

TEST(QueryContextTest, MemLimitBreachCancels) {
  QueryContext q;
  q.set_mem_limit_bytes(1000);
  q.AddMem(999);
  EXPECT_TRUE((q.CheckPoint()).ok());
  q.AddMem(500);
  Status st = q.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_NE(st.message().find("memory limit"), std::string::npos);
}

TEST(QueryContextTest, MemAccountingTracksCurrentAndPeak) {
  QueryContext q;
  q.AddMem(2000);
  q.AddMem(-1500);
  EXPECT_EQ(q.mem_bytes(), 500u);
  EXPECT_EQ(q.mem_peak_bytes(), 2000u);
  q.AddMem(300);
  EXPECT_EQ(q.mem_bytes(), 800u);
  EXPECT_EQ(q.mem_peak_bytes(), 2000u);  // peak is sticky
}

TEST(QueryContextTest, CountersAccumulate) {
  QueryContext q;
  q.AddCpuNs(100);
  q.AddCpuNs(23);
  q.AddRows(7);
  q.AddNodes(512);
  q.AddMorselsTotal(4);
  q.AddMorselsDone(1);
  q.AddMorselsDone(3);
  EXPECT_EQ(q.cpu_ns(), 123u);
  EXPECT_EQ(q.rows(), 7u);
  EXPECT_EQ(q.nodes(), 512u);
  EXPECT_EQ(q.morsels_total(), 4u);
  EXPECT_EQ(q.morsels_done(), 4u);
}

TEST(QueryContextTest, ScopeInstallsAndNests) {
  EXPECT_EQ(QueryContext::Current(), nullptr);
  QueryContext outer;
  {
    QueryContext::Scope a(&outer);
    EXPECT_EQ(QueryContext::Current(), &outer);
    QueryContext inner;
    {
      QueryContext::Scope b(&inner);
      EXPECT_EQ(QueryContext::Current(), &inner);
    }
    EXPECT_EQ(QueryContext::Current(), &outer);
  }
  EXPECT_EQ(QueryContext::Current(), nullptr);
}

TEST(QueryContextTest, ScopeIsPerThread) {
  QueryContext q;
  QueryContext::Scope scope(&q);
  QueryContext* seen = &q;  // overwritten below
  std::thread other([&] { seen = QueryContext::Current(); });
  other.join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_EQ(QueryContext::Current(), &q);
}

TEST(QueryContextTest, EnvKnobsAreReadPerCall) {
  ::setenv("AQUA_QUERY_TIMEOUT_MS", "250", 1);
  EXPECT_EQ(DefaultQueryTimeoutNs(), 250ull * 1000000ull);
  ::setenv("AQUA_QUERY_TIMEOUT_MS", "nonsense", 1);
  EXPECT_EQ(DefaultQueryTimeoutNs(), 0u);
  ::unsetenv("AQUA_QUERY_TIMEOUT_MS");
  EXPECT_EQ(DefaultQueryTimeoutNs(), 0u);

  ::setenv("AQUA_QUERY_MEM_LIMIT_MB", "2", 1);
  EXPECT_EQ(DefaultQueryMemLimitBytes(), 2ull * 1024 * 1024);
  ::unsetenv("AQUA_QUERY_MEM_LIMIT_MB");
  EXPECT_EQ(DefaultQueryMemLimitBytes(), 0u);
}

TEST(QueryContextTest, ClocksAdvance) {
  uint64_t t0 = QueryContext::NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(QueryContext::NowNs(), t0);
  // Burn a little CPU so the thread clock moves.
  volatile uint64_t sink = 0;
  uint64_t c0 = QueryContext::ThreadCpuNs();
  for (int i = 0; i < 100000; ++i) sink += static_cast<uint64_t>(i);
  EXPECT_GE(QueryContext::ThreadCpuNs(), c0);
}

}  // namespace
}  // namespace aqua::obs
