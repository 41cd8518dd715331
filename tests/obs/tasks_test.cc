#include "obs/tasks.h"

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "obs/query_context.h"

namespace aqua::obs {
namespace {

TEST(TaskRegistryTest, GuardRegistersAndUnregisters) {
  TaskRegistry& reg = TaskRegistry::Global();
  size_t before = reg.active();
  {
    QueryContext q;
    TaskRegistry::Guard guard(&q);
    EXPECT_EQ(reg.active(), before + 1);
    bool found = false;
    for (const TaskRow& row : reg.Snapshot()) {
      if (row.id == q.id()) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(reg.active(), before);
}

TEST(TaskRegistryTest, SnapshotCarriesDescriptorAndCounters) {
  QueryContext q;
  q.set_fingerprint(0xfeed);
  q.set_plan_text("sub_select\n  scan [t]");
  q.set_threads(4);
  q.AddRows(11);
  q.AddMem(4096);
  TaskRegistry::Guard guard(&q);
  TaskRow mine;
  for (const TaskRow& row : TaskRegistry::Global().Snapshot()) {
    if (row.id == q.id()) mine = row;
  }
  ASSERT_EQ(mine.id, q.id());
  EXPECT_EQ(mine.fingerprint, 0xfeedu);
  // The multi-line normalized plan flattens to one line.
  EXPECT_EQ(mine.plan, "sub_select > scan [t]");
  EXPECT_EQ(mine.threads, 4u);
  EXPECT_EQ(mine.rows, 11u);
  EXPECT_EQ(mine.mem_bytes, 4096u);
  EXPECT_EQ(mine.mem_peak_bytes, 4096u);
  EXPECT_FALSE(mine.cancel_requested);
}

TEST(TaskRegistryTest, KillCancelsInFlightQuery) {
  QueryContext q;
  TaskRegistry::Guard guard(&q);
  EXPECT_TRUE(TaskRegistry::Global().Kill(q.id()).ok());
  EXPECT_TRUE(q.cancel_requested());
  Status st = q.CheckPoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("was killed"), std::string::npos)
      << st.ToString();
}

TEST(TaskRegistryTest, KillUnknownIdIsNotFound) {
  Status st = TaskRegistry::Global().Kill(0);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
}

TEST(TaskRegistryTest, EnforceLimitsCancelsPastDeadline) {
  QueryContext q;
  q.set_deadline_after_ns(1);  // effectively already expired
  TaskRegistry::Guard guard(&q);
  EXPECT_GE(TaskRegistry::Global().EnforceLimits(), 1u);
  EXPECT_TRUE(q.cancel_requested());
  EXPECT_EQ(q.CheckPoint().code(), StatusCode::kDeadlineExceeded);
  // A second sweep skips already-cancelled tasks.
  EXPECT_EQ(TaskRegistry::Global().EnforceLimits(), 0u);
}

TEST(TaskRegistryTest, EnforceLimitsCancelsOverMemoryBudget) {
  QueryContext q;
  q.set_mem_limit_bytes(100);
  q.AddMem(1000);
  TaskRegistry::Guard guard(&q);
  EXPECT_GE(TaskRegistry::Global().EnforceLimits(), 1u);
  EXPECT_EQ(q.CheckPoint().code(), StatusCode::kCancelled);
}

TEST(TaskRegistryTest, TextAndJsonRenderings) {
  QueryContext q;
  q.set_plan_text("scan [family]");
  TaskRegistry::Guard guard(&q);
  std::string text = TaskRegistry::Global().ToText();
  EXPECT_NE(text.find("elapsed_ms"), std::string::npos) << text;
  EXPECT_NE(text.find("scan [family]"), std::string::npos) << text;
  std::string json = TaskRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"tasks\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":" + std::to_string(q.id())), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cancel_requested\":false"), std::string::npos);
}

}  // namespace
}  // namespace aqua::obs
