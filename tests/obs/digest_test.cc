#include "obs/digest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "query/builder.h"
#include "test_util.h"

namespace aqua::obs {
namespace {

using aqua::testing::AquaTestBase;

TEST(Fnv1aTest, KnownVectors) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(Fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(Fnv1a("abc"), Fnv1a("acb"));
}

class DigestPlanTest : public AquaTestBase {};

TEST_F(DigestPlanTest, ConstantsAreElided) {
  // Same shape, different comparison constants -> same fingerprint.
  PlanRef p1 = Q::TreeSubSelect(Q::ScanTree("t"), TP("{val > 60}(?*)"));
  PlanRef p2 = Q::TreeSubSelect(Q::ScanTree("t"), TP("{val > 21}(?*)"));
  EXPECT_EQ(NormalizePlan(p1), NormalizePlan(p2));
  EXPECT_EQ(FingerprintPlan(p1), FingerprintPlan(p2));
  // The constant must not appear in the normalized text.
  EXPECT_EQ(NormalizePlan(p1).find("60"), std::string::npos)
      << NormalizePlan(p1);
  EXPECT_NE(NormalizePlan(p1).find("$"), std::string::npos);
}

TEST_F(DigestPlanTest, ShapeDifferencesStayDistinct) {
  PlanRef gt = Q::TreeSubSelect(Q::ScanTree("t"), TP("{val > 60}(?*)"));
  PlanRef eq = Q::TreeSubSelect(Q::ScanTree("t"), TP("{val == 60}(?*)"));
  PlanRef attr = Q::TreeSubSelect(Q::ScanTree("t"), TP("{age > 60}(?*)"));
  PlanRef coll = Q::TreeSubSelect(Q::ScanTree("u"), TP("{val > 60}(?*)"));
  EXPECT_NE(FingerprintPlan(gt), FingerprintPlan(eq));   // operator differs
  EXPECT_NE(FingerprintPlan(gt), FingerprintPlan(attr)); // attribute differs
  EXPECT_NE(FingerprintPlan(gt), FingerprintPlan(coll)); // collection differs
}

TEST_F(DigestPlanTest, ListPatternsNormalize) {
  PlanRef p1 = Q::ListSubSelect(Q::ScanList("l"), LP("a ? a"));
  PlanRef p2 = Q::ListSubSelect(Q::ScanList("l"), LP("b ? b"));
  // Different literal atoms compare against different constants -> same
  // shape after eliding ({name == $} ? {name == $}).
  EXPECT_EQ(NormalizePlan(p1), NormalizePlan(p2));
  PlanRef star = Q::ListSubSelect(Q::ScanList("l"), LP("a ?* a"));
  EXPECT_NE(FingerprintPlan(p1), FingerprintPlan(star));
}

// --- quantile estimator golden tests -------------------------------------

/// Buckets a sample set into the 65-bucket log scheme.
std::array<uint64_t, Histogram::kNumBuckets> BucketsOf(
    const std::vector<uint64_t>& samples) {
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  for (uint64_t v : samples) buckets[Histogram::BucketOf(v)]++;
  return buckets;
}

/// Exact nearest-rank quantile of `samples` (sorted copy).
uint64_t ExactQuantile(std::vector<uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

/// The estimator's guarantee: the estimate lands in the same log-scale
/// bucket as the exact sample quantile (within one bucket at boundaries).
void ExpectWithinOneBucket(const std::vector<uint64_t>& samples, double q) {
  double est = EstimateQuantile(BucketsOf(samples), samples.size(), q);
  uint64_t exact = ExactQuantile(samples, q);
  size_t est_bucket = Histogram::BucketOf(static_cast<uint64_t>(est));
  size_t exact_bucket = Histogram::BucketOf(exact);
  size_t diff = est_bucket > exact_bucket ? est_bucket - exact_bucket
                                          : exact_bucket - est_bucket;
  EXPECT_LE(diff, 1u) << "q=" << q << " est=" << est << " exact=" << exact;
}

TEST(EstimateQuantileTest, UniformDistribution) {
  std::vector<uint64_t> samples;
  for (uint64_t v = 1; v <= 1000; ++v) samples.push_back(v);
  for (double q : {0.50, 0.95, 0.99}) ExpectWithinOneBucket(samples, q);
}

TEST(EstimateQuantileTest, ConstantDistribution) {
  std::vector<uint64_t> samples(200, 42);
  for (double q : {0.50, 0.95, 0.99}) {
    double est = EstimateQuantile(BucketsOf(samples), samples.size(), q);
    // Every sample is 42, so every quantile lives in 42's bucket [32, 64).
    EXPECT_GE(est, 32.0);
    EXPECT_LT(est, 64.0);
  }
}

TEST(EstimateQuantileTest, SkewedDistribution) {
  // 99 fast queries and one catastrophic one: p50/p95/p99 must stay in the
  // fast bucket, not get dragged toward the outlier.
  std::vector<uint64_t> samples(99, 3);
  samples.push_back(1000000);
  for (double q : {0.50, 0.95, 0.99}) ExpectWithinOneBucket(samples, q);
  double p50 = EstimateQuantile(BucketsOf(samples), samples.size(), 0.50);
  EXPECT_LT(p50, 8.0);
}

TEST(EstimateQuantileTest, PowersOfTwo) {
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20; ++i) {
    for (int rep = 0; rep < 5; ++rep) {
      samples.push_back(uint64_t{1} << i);
    }
  }
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    ExpectWithinOneBucket(samples, q);
  }
}

TEST(EstimateQuantileTest, EdgeCases) {
  std::array<uint64_t, Histogram::kNumBuckets> empty{};
  EXPECT_EQ(EstimateQuantile(empty, 0, 0.5), 0.0);
  std::vector<uint64_t> one{7};
  double est = EstimateQuantile(BucketsOf(one), 1, 0.99);
  EXPECT_EQ(Histogram::BucketOf(static_cast<uint64_t>(est)),
            Histogram::BucketOf(7));
}

TEST(EstimateQuantileTest, ZeroCountIsZeroAtEveryQuantile) {
  std::array<uint64_t, Histogram::kNumBuckets> empty{};
  for (double q : {0.0, 0.01, 0.50, 0.99, 1.0}) {
    EXPECT_EQ(EstimateQuantile(empty, 0, q), 0.0) << "q=" << q;
  }
}

TEST(EstimateQuantileTest, SingleSampleAtEveryQuantile) {
  // With one sample, every quantile IS that sample (to within its bucket),
  // including out-of-range q which clamps to [0, 1].
  std::vector<uint64_t> one{300};
  for (double q : {-0.5, 0.0, 0.01, 0.50, 0.99, 1.0, 2.0}) {
    double est = EstimateQuantile(BucketsOf(one), 1, q);
    EXPECT_EQ(Histogram::BucketOf(static_cast<uint64_t>(est)),
              Histogram::BucketOf(300))
        << "q=" << q << " est=" << est;
  }
}

TEST(EstimateQuantileTest, AllMassInOneBucketInterpolatesInside) {
  // 1000 samples of 100 all land in bucket [64, 127]: every quantile must
  // interpolate inside that range, p-low near the lower edge, p-high near
  // the upper, monotone in q.
  std::vector<uint64_t> samples(1000, 100);
  double prev = 0.0;
  for (double q : {0.01, 0.25, 0.50, 0.75, 0.99}) {
    double est = EstimateQuantile(BucketsOf(samples), samples.size(), q);
    EXPECT_GE(est, 64.0) << "q=" << q;
    EXPECT_LE(est, 127.0) << "q=" << q;
    EXPECT_GE(est, prev) << "quantiles must be monotone in q";
    prev = est;
  }
}

TEST(EstimateQuantileTest, CapBucketHoldsHugeValues) {
  // UINT64_MAX has bit width 64 -> the cap bucket (index 64, the last of
  // the 65). The estimate must stay finite and inside [2^63, 2^64).
  ASSERT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kNumBuckets - 1);
  std::vector<uint64_t> samples(10, UINT64_MAX);
  for (double q : {0.50, 0.99}) {
    double est = EstimateQuantile(BucketsOf(samples), samples.size(), q);
    EXPECT_GE(est, std::ldexp(1.0, 63)) << "q=" << q;
    EXPECT_LE(est, std::ldexp(1.0, 64)) << "q=" << q;
  }
}

TEST(EstimateQuantileTest, RankBeyondBucketMassFallsBackToLastUpper) {
  // A count larger than the bucket mass (e.g. a racing snapshot) must not
  // run off the array: ranks past the last sample clamp to the upper bound
  // of the last non-empty bucket.
  std::vector<uint64_t> samples(4, 7);
  double est = EstimateQuantile(BucketsOf(samples), /*count=*/1000, 0.99);
  EXPECT_EQ(est, 7.0);
}

}  // namespace
}  // namespace aqua::obs
