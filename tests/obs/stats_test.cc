#include "obs/stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"

namespace aqua::obs {
namespace {

/// One-op sample with the fields the catalogue folds.
OpSample Sample(const std::string& path, uint64_t node_fp, uint64_t in,
                uint64_t out, uint64_t wall_ns = 1000,
                uint64_t probes = 0, uint64_t candidates = 0) {
  OpSample s;
  s.op_name = "sub_select";
  s.path = path;
  s.node_fp = node_fp;
  s.calls = 1;
  s.in_rows = in;
  s.out_rows = out;
  s.wall_ns = wall_ns;
  s.cpu_ns = wall_ns;
  s.probes = probes;
  s.candidates = candidates;
  return s;
}

/// Records one execution of plan `fp` that carried the op samples `ops`.
void Harvest(StatsWarehouse* wh, uint64_t fp, std::vector<OpSample> ops,
             uint64_t wall_ns = 1000) {
  wh->Record(fp, "plan", wall_ns, 0, StatusCode::kOk, false, ops);
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- per-op records and the learned index --------------------------------

TEST(StatsWarehouseTest, HarvestCreatesRecordsAndLearnedEntries) {
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0xabc, {Sample("0", 0x1, 100, 10), Sample("0.0", 0x2, 100, 100)});
  EXPECT_EQ(wh.size(), 1u);  // one plan row holding both op records

  std::vector<OpStatsRow> rows = wh.Row(0xabc).ops;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].path, "0");  // preorder
  EXPECT_EQ(rows[0].op_name, "sub_select");
  EXPECT_EQ(rows[0].calls, 1u);
  EXPECT_DOUBLE_EQ(rows[0].in_rows, 100.0);
  EXPECT_DOUBLE_EQ(rows[0].out_rows, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].selectivity, 0.1);
  EXPECT_EQ(rows[1].path, "0.0");

  double sel = 0;
  uint64_t calls = 0;
  EXPECT_TRUE(wh.LearnedSelectivity(0x1, &sel, &calls));
  EXPECT_DOUBLE_EQ(sel, 0.1);
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(wh.LearnedSelectivity(0x999, &sel, &calls));
}

TEST(StatsWarehouseTest, OpRecordsKeepPreorderWhenPathsArriveLate) {
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1), Sample("0.10", 0xb, 10, 1)});
  // A later run reaches ops the first one short-circuited.
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1), Sample("0.1", 0xc, 10, 1),
                     Sample("0.1.0", 0xd, 10, 1), Sample("0.2", 0xe, 10, 1)});
  std::vector<OpStatsRow> ops = wh.Row(0x1).ops;
  std::vector<std::string> paths;
  for (const OpStatsRow& op : ops) paths.push_back(op.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"0", "0.1", "0.1.0", "0.2",
                                             "0.10"}));
  EXPECT_EQ(ops[0].calls, 2u);
  EXPECT_EQ(ops[4].calls, 1u);
}

TEST(StatsWarehouseTest, EwmaSmoothsAcrossHarvests) {
  StatsWarehouse wh(/*capacity=*/64);
  // First harvest sets the value directly; later ones blend at kAlpha.
  Harvest(&wh, 0xabc, {Sample("0", 0x1, 100, 10)});   // sel 0.10
  Harvest(&wh, 0xabc, {Sample("0", 0x1, 100, 60)});   // sel 0.60
  std::vector<OpStatsRow> rows = wh.Row(0xabc).ops;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 2u);
  // 0.8 * 0.10 + 0.2 * 0.60 = 0.20
  EXPECT_NEAR(rows[0].selectivity, 0.2, 1e-9);
  double sel = 0;
  uint64_t calls = 0;
  ASSERT_TRUE(wh.LearnedSelectivity(0x1, &sel, &calls));
  EXPECT_NEAR(sel, 0.2, 1e-9);
  EXPECT_EQ(calls, 2u);
}

TEST(StatsWarehouseTest, CandidatesPerProbeOnlyForIndexedOps) {
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 100, 10)});  // no probes
  Harvest(&wh, 0x2, {Sample("0", 0xb, 40, 10, 1000, /*probes=*/4,
                            /*candidates=*/40)});
  double cpp = 0;
  uint64_t calls = 0;
  EXPECT_FALSE(wh.LearnedCandidates(0xa, &cpp, &calls));
  ASSERT_TRUE(wh.LearnedCandidates(0xb, &cpp, &calls));
  EXPECT_DOUBLE_EQ(cpp, 10.0);  // 40 candidates / 4 probes
  std::vector<OpStatsRow> rows = wh.Row(0x1).ops;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_LT(rows[0].candidates_per_probe, 0.0);  // never observed
}

TEST(StatsWarehouseTest, EvictsLeastRecentlyUpdatedAtCapacity) {
  StatsWarehouse wh(/*capacity=*/3);
  EXPECT_EQ(wh.capacity(), 3u);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1)});
  Harvest(&wh, 0x2, {Sample("0", 0xb, 10, 1)});
  Harvest(&wh, 0x3, {Sample("0", 0xc, 10, 1)});
  EXPECT_EQ(wh.size(), 3u);
  // Touch 0x1 so 0x2 is the least-recently-updated row.
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1)});
  Harvest(&wh, 0x4, {Sample("0", 0xd, 10, 1)});
  EXPECT_EQ(wh.size(), 3u);
  EXPECT_EQ(wh.Row(0x2).calls, 0u);  // evicted, op records with it
  EXPECT_TRUE(wh.Row(0x2).ops.empty());
  EXPECT_EQ(wh.Row(0x1).ops.size(), 1u);  // survived
  EXPECT_EQ(wh.Row(0x4).ops.size(), 1u);
  // The learned index is held to the same cap: 0xb went with its row.
  double sel = 0;
  EXPECT_FALSE(wh.LearnedSelectivity(0xb, &sel, nullptr));
  EXPECT_TRUE(wh.LearnedSelectivity(0xa, &sel, nullptr));
}

// AQUA_STATS_CAP is no longer read: the default cap is the constant 4096
// plan rows, whatever the environment holds.
TEST(StatsWarehouseTest, CapacityDefaultsToEnvOrFourThousand) {
  ::setenv("AQUA_STATS_CAP", "2", 1);
  StatsWarehouse wh;
  EXPECT_EQ(wh.capacity(), 4096u);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1)});
  Harvest(&wh, 0x2, {Sample("0", 0xb, 10, 1)});
  Harvest(&wh, 0x3, {Sample("0", 0xc, 10, 1)});
  EXPECT_EQ(wh.size(), 3u);
  EXPECT_EQ(wh.Row(0x1).ops.size(), 1u);  // not evicted at 2
  ::unsetenv("AQUA_STATS_CAP");
  EXPECT_EQ(StatsWarehouse::Global().capacity(), 4096u);
}

TEST(StatsWarehouseTest, RowsSortByWallTimeDescending) {
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1)}, /*wall_ns=*/100);
  Harvest(&wh, 0x2, {Sample("0", 0xb, 10, 1)}, /*wall_ns=*/90000);
  Harvest(&wh, 0x3, {Sample("0", 0xc, 10, 1)}, /*wall_ns=*/5000);
  std::vector<PlanRow> rows = wh.Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].fingerprint, 0x2u);
  EXPECT_EQ(rows[1].fingerprint, 0x3u);
  EXPECT_EQ(rows[2].fingerprint, 0x1u);
}

TEST(StatsWarehouseTest, TextAndJsonRenderings) {
  std::string path = ::testing::TempDir() + "/aqua_stats_render.txt";
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0x1234, {Sample("0", 0xa, 100, 10, 2000000, 2, 20)});
  // The saved text carries the op record under its plan.
  ASSERT_OK(wh.Save(path));
  std::string text = ReadFile(path);
  EXPECT_NE(text.find("record 0000000000001234 0 sub_select "
                      "000000000000000a 1 100 10 2e+06 2e+06 0.1 10\n"),
            std::string::npos)
      << text;
  std::string json = wh.ToJson();
  EXPECT_NE(json.find("\"plans\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"0000000000001234\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\":[{\"path\":\"0\",\"op\":\"sub_select\""),
            std::string::npos);
  EXPECT_NE(json.find("\"selectivity\":0.1"), std::string::npos);
  EXPECT_NE(json.find("\"candidates_per_probe\":10"), std::string::npos);
  std::remove(path.c_str());
}

// --- persistence ---------------------------------------------------------

TEST(StatsWarehouseTest, SaveLoadRoundTripsRecordsAndLearned) {
  std::string path =
      ::testing::TempDir() + "/aqua_stats_roundtrip.txt";
  StatsWarehouse wh(/*capacity=*/64);
  wh.Record(0x1, "sub_select [t]\n  scan \\ [t]\n", 5000, 4096,
            StatusCode::kCancelled, true,
            {Sample("0", 0xa, 100, 10, 5000, 2, 20),
             Sample("0.0", 0xb, 100, 100)});
  wh.Record(0x1, "ignored", 7000, 0, StatusCode::kOk, false,
            {Sample("0", 0xa, 100, 30, 7000, 2, 24)});
  wh.Record(0x2, "", 10);  // empty text, no ops
  ASSERT_OK(wh.Save(path));

  StatsWarehouse other(/*capacity=*/64);
  ASSERT_OK(other.Load(path));
  EXPECT_EQ(other.size(), wh.size());
  PlanRow want = wh.Row(0x1);
  PlanRow got = other.Row(0x1);
  // Digest columns, the multi-line text included, survive exactly.
  EXPECT_EQ(got.text, "sub_select [t]\n  scan \\ [t]\n");
  EXPECT_EQ(got.calls, 2u);
  EXPECT_EQ(got.total_ns, want.total_ns);
  EXPECT_EQ(got.min_ns, want.min_ns);
  EXPECT_EQ(got.max_ns, want.max_ns);
  EXPECT_EQ(got.peak_mem_bytes, 4096u);
  EXPECT_EQ(got.cancelled, 1u);
  EXPECT_EQ(got.store_commits, 1u);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(other.Row(0x2).calls, 1u);
  EXPECT_EQ(other.Row(0x2).text, "");
  ASSERT_EQ(got.ops.size(), want.ops.size());
  for (size_t i = 0; i < got.ops.size(); ++i) {
    EXPECT_EQ(got.ops[i].path, want.ops[i].path);
    EXPECT_EQ(got.ops[i].op_name, want.ops[i].op_name);
    EXPECT_EQ(got.ops[i].node_fp, want.ops[i].node_fp);
    EXPECT_EQ(got.ops[i].calls, want.ops[i].calls);
    EXPECT_NEAR(got.ops[i].selectivity, want.ops[i].selectivity, 1e-6);
    EXPECT_NEAR(got.ops[i].candidates_per_probe,
                want.ops[i].candidates_per_probe, 1e-6);
  }
  double sel = 0, cpp = 0;
  uint64_t calls = 0;
  ASSERT_TRUE(other.LearnedSelectivity(0xa, &sel, &calls));
  EXPECT_EQ(calls, 2u);
  ASSERT_TRUE(other.LearnedCandidates(0xa, &cpp, &calls));
  EXPECT_GT(cpp, 0.0);
  std::remove(path.c_str());
}

TEST(StatsWarehouseTest, LoadReadsVersionOneFiles) {
  std::string path = ::testing::TempDir() + "/aqua_stats_v1.txt";
  WriteFile(path,
            "aqua-stats v1\n"
            "record 0000000000000001 0 sub_select 000000000000000a 3 100 "
            "10 5000 4000 0.1 -\n"
            "learned 000000000000000a 3 0.1 -\n");
  StatsWarehouse wh(/*capacity=*/64);
  ASSERT_OK(wh.Load(path));
  PlanRow row = wh.Row(0x1);
  EXPECT_EQ(row.calls, 0u);  // v1 files carry no digest columns
  ASSERT_EQ(row.ops.size(), 1u);
  EXPECT_EQ(row.ops[0].calls, 3u);
  EXPECT_DOUBLE_EQ(row.ops[0].selectivity, 0.1);
  double sel = 0;
  uint64_t calls = 0;
  ASSERT_TRUE(wh.LearnedSelectivity(0xa, &sel, &calls));
  EXPECT_EQ(calls, 3u);
  // The first execution after the load fills the digest columns in.
  wh.Record(0x1, "sub_select", 50);
  EXPECT_EQ(wh.Row(0x1).calls, 1u);
  EXPECT_EQ(wh.Row(0x1).text, "sub_select");
  std::remove(path.c_str());
}

TEST(StatsWarehouseTest, LoadMergesAndRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/aqua_stats_merge.txt";
  StatsWarehouse a(/*capacity=*/64);
  Harvest(&a, 0x1, {Sample("0", 0xa, 100, 10)});
  ASSERT_OK(a.Save(path));

  StatsWarehouse b(/*capacity=*/64);
  Harvest(&b, 0x2, {Sample("0", 0xb, 10, 5)});
  ASSERT_OK(b.Load(path));
  EXPECT_EQ(b.size(), 2u);  // merged, not replaced
  EXPECT_EQ(b.Row(0x2).ops.size(), 1u);

  EXPECT_TRUE(b.Load(path + ".does-not-exist").IsNotFound());

  std::string bad = ::testing::TempDir() + "/aqua_stats_bad.txt";
  WriteFile(bad, "not-a-stats-file v9\n");
  EXPECT_TRUE(b.Load(bad).IsParseError());
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(StatsWarehouseTest, LoadIsAllOrNothing) {
  std::string path = ::testing::TempDir() + "/aqua_stats_torn.txt";
  // Valid lines (in the v1 form both versions read), then one bad line.
  WriteFile(path,
            "aqua-stats v1\n"
            "record 0000000000000007 0 sub_select 000000000000000c 3 100 "
            "10 5000 4000 0.1 -\n"
            "learned 000000000000000c 3 0.1 -\n"
            "learned 000000000000000b 9 0.9 -\n"
            "garbage\n");
  StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, 0x2, {Sample("0", 0xb, 10, 5)});
  EXPECT_TRUE(wh.Load(path).IsParseError());
  // Neither the rows nor the learned index took any part of the file.
  EXPECT_EQ(wh.size(), 1u);
  EXPECT_TRUE(wh.Row(0x7).ops.empty());
  double sel = 0;
  uint64_t calls = 0;
  EXPECT_FALSE(wh.LearnedSelectivity(0xc, &sel, &calls));
  ASSERT_TRUE(wh.LearnedSelectivity(0xb, &sel, &calls));
  EXPECT_EQ(calls, 1u);
  EXPECT_DOUBLE_EQ(sel, 0.5);
  std::remove(path.c_str());
}

TEST(StatsWarehouseTest, SaveLoadStatsResolveEnvFile) {
  std::string path = ::testing::TempDir() + "/aqua_stats_env.txt";
  // With no argument and no env var there is nowhere to write.
  ::unsetenv("AQUA_STATS_FILE");
  EXPECT_TRUE(SaveStats().IsInvalidArgument());
  EXPECT_TRUE(LoadStats().IsInvalidArgument());

  ::setenv("AQUA_STATS_FILE", path.c_str(), 1);
  StatsWarehouse& wh = StatsWarehouse::Global();
  wh.Reset();
  Harvest(&wh, 0x77, {Sample("0", 0xe, 10, 5)});
  ASSERT_OK(SaveStats());
  wh.Reset();
  EXPECT_EQ(wh.size(), 0u);
  ASSERT_OK(LoadStats());
  EXPECT_EQ(wh.size(), 1u);
  EXPECT_EQ(wh.Row(0x77).ops.size(), 1u);
  ::unsetenv("AQUA_STATS_FILE");
  wh.Reset();
  std::remove(path.c_str());
}

#ifndef AQUA_OBS_DISABLED
TEST(StatsWarehouseTest, HarvestBumpsRegistryCountersAndGauge) {
  Registry& reg = Registry::Global();
  Snapshot before = reg.Snap();
  StatsWarehouse wh(/*capacity=*/1);
  Harvest(&wh, 0x1, {Sample("0", 0xa, 10, 1)});
  Harvest(&wh, 0x2, {Sample("0", 0xb, 10, 1)});  // evicts 0x1's row
  Snapshot delta = reg.Snap().DeltaSince(before);
  EXPECT_GE(delta.CounterValue("stats.harvests"), 2u);
  EXPECT_GE(delta.CounterValue("stats.evictions"), 1u);
}
#endif  // AQUA_OBS_DISABLED

// --- digest columns --------------------------------------------------------

TEST(DigestTableTest, RecordAccumulatesPerFingerprint) {
  StatsWarehouse& table = StatsWarehouse::Global();
  table.Reset();
  table.Record(0xabc, "plan A", 100);
  table.Record(0xabc, "ignored-on-repeat", 300);
  table.Record(0xdef, "plan B", 50);
  EXPECT_EQ(table.size(), 2u);

  PlanRow a = table.Row(0xabc);
  EXPECT_EQ(a.calls, 2u);
  EXPECT_EQ(a.total_ns, 400u);
  EXPECT_EQ(a.min_ns, 100u);
  EXPECT_EQ(a.max_ns, 300u);
  EXPECT_EQ(a.text, "plan A");  // first-seen text wins
  EXPECT_DOUBLE_EQ(a.mean_ns(), 200.0);
  EXPECT_TRUE(a.ops.empty());  // no op samples recorded

  // Rows are sorted by total time descending.
  std::vector<PlanRow> rows = table.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fingerprint, 0xabcu);
  EXPECT_EQ(rows[1].fingerprint, 0xdefu);

  // Absent fingerprints read as empty.
  EXPECT_EQ(table.Row(0x999).calls, 0u);
  table.Reset();
  EXPECT_EQ(table.size(), 0u);
}

TEST(DigestTableTest, RecordsPeakMemoryAndLifecycleOutcomes) {
  StatsWarehouse table(/*capacity=*/16);
  table.Record(0x1, "plan", 100, /*mem_peak_bytes=*/5000);
  table.Record(0x1, "plan", 200, /*mem_peak_bytes=*/3000);
  table.Record(0x1, "plan", 50, /*mem_peak_bytes=*/0, StatusCode::kCancelled);
  table.Record(0x1, "plan", 50, /*mem_peak_bytes=*/0,
               StatusCode::kDeadlineExceeded);
  PlanRow r = table.Row(0x1);
  EXPECT_EQ(r.calls, 4u);
  EXPECT_EQ(r.peak_mem_bytes, 5000u);  // max across calls
  EXPECT_EQ(r.cancelled, 1u);
  EXPECT_EQ(r.deadline_exceeded, 1u);
  std::string json = table.ToJson();
  EXPECT_NE(json.find("\"peak_mem_bytes\":5000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\":1"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos);
}

TEST(DigestTableTest, EvictsLeastRecentlyUpdatedAtCapacity) {
  StatsWarehouse table(/*capacity=*/3);
  EXPECT_EQ(table.capacity(), 3u);
  table.Record(0x1, "one", 10);
  table.Record(0x2, "two", 10);
  table.Record(0x3, "three", 10);
  EXPECT_EQ(table.size(), 3u);
  // Touch 0x1 so 0x2 becomes the least-recently-updated row.
  table.Record(0x1, "one", 10);
  // Inserting a fourth shape evicts 0x2, not the freshly-touched 0x1.
  table.Record(0x4, "four", 10);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Row(0x2).calls, 0u);  // evicted
  EXPECT_EQ(table.Row(0x1).calls, 2u);  // survived
  EXPECT_EQ(table.Row(0x3).calls, 1u);
  EXPECT_EQ(table.Row(0x4).calls, 1u);

  // Eviction repeats as more shapes arrive: now 0x3 is the oldest.
  table.Record(0x5, "five", 10);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Row(0x3).calls, 0u);
}

// AQUA_DIGEST_CAP is no longer read: the digest columns live in the
// catalogue's rows, held to the same constant cap of 4096 plan rows.
TEST(DigestTableTest, CapacityDefaultsToEnvOrFourThousand) {
  ::setenv("AQUA_DIGEST_CAP", "2", 1);
  StatsWarehouse table;
  EXPECT_EQ(table.capacity(), 4096u);
  table.Record(0x1, "one", 10);
  table.Record(0x2, "two", 10);
  table.Record(0x3, "three", 10);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Row(0x1).calls, 1u);  // not evicted at 2
  ::unsetenv("AQUA_DIGEST_CAP");
  EXPECT_EQ(StatsWarehouse::Global().capacity(), 4096u);
}

TEST(DigestTableTest, TextAndJsonRenderings) {
  std::string path = ::testing::TempDir() + "/aqua_digest_render.txt";
  StatsWarehouse table(/*capacity=*/16);
  table.Record(0x1234, "sub_select\n  scan [t]", 2000000);
  // The saved text keeps the digest columns, all 65 histogram buckets
  // (2 ms lands in bucket 21) and the plan on one line.
  ASSERT_OK(table.Save(path));
  std::string buckets;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    buckets += b == 21 ? " 1" : " 0";
  }
  EXPECT_NE(ReadFile(path).find("plan 0000000000001234 1 2000000 2000000 "
                                "2000000 0 0 0 0" +
                                buckets + " sub_select\\n  scan [t]\n"),
            std::string::npos)
      << ReadFile(path);
  EXPECT_EQ(table.Row(0x1234).OneLineText(), "sub_select > scan [t]");
  std::string json = table.ToJson();
  EXPECT_NE(json.find("\"0000000000001234\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\":\"sub_select > scan [t]\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aqua::obs
