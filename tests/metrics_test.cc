#include "topkpkg/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace topkpkg::obs {
namespace {

// Nearest-rank order statistic over a sorted copy — the oracle every
// histogram quantile is pinned against.
double OracleQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::max<std::size_t>(1, std::min(rank, values.size()));
  return values[rank - 1];
}

// Quarter-octave buckets: upper/lower edge ratio <= 5/4, so a bucketed
// quantile may overestimate the oracle by at most 25% (and never
// underestimates, up to one final-bit rounding in BucketUpper's ldexp).
void ExpectQuantileWithinBucketBound(const Histogram& h,
                                     const std::vector<double>& values,
                                     double q) {
  const double oracle = OracleQuantile(values, q);
  const double got = h.Quantile(q);
  EXPECT_GE(got, oracle * (1.0 - 1e-12)) << "q=" << q;
  EXPECT_LE(got, oracle * 1.2501) << "q=" << q;
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, OneSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.Observe(0.0371);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    // The min/max clamp collapses the bucket edge to the single value.
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.0371) << "q=" << q;
  }
}

TEST(HistogramTest, AllEqualIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(2.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.5);
}

TEST(HistogramTest, OverflowBucketClampsToMax) {
  Histogram h;
  // Past the last octave (2^36 s): everything lands in the overflow bucket
  // whose upper edge is +inf, so only the max clamp keeps answers finite.
  // All ranks inside that one bucket collapse to max — exact at the top
  // quantiles, conservative below.
  const double big = std::ldexp(1.0, 40);
  h.Observe(big);
  h.Observe(2.0 * big);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0 * big);
  EXPECT_DOUBLE_EQ(h.Quantile(0.01), 2.0 * big);
  // With a single overflow observation the max clamp makes it exact.
  Histogram one;
  one.Observe(big);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), big);
}

TEST(HistogramTest, UnderflowAndNonPositiveLandInFirstBucket) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-3.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 3u);
}

TEST(HistogramTest, QuantilesTrackSortedVectorOracle) {
  std::mt19937_64 rng(20260808);
  // Log-uniform latencies across nine decades — the shape the serving and
  // storage paths actually observe.
  std::uniform_real_distribution<double> exp_dist(-7.0, 2.0);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, exp_dist(rng));
    values.push_back(v);
    h.Observe(v);
  }
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    ExpectQuantileWithinBucketBound(h, values, q);
  }
  const double sum = h.sum();
  double expected_sum = 0.0;
  for (double v : values) expected_sum += v;
  EXPECT_NEAR(sum, expected_sum, 1e-6 * expected_sum);
}

TEST(HistogramTest, ConcurrentObserversLoseNothing) {
  // TSan hammer: the Observe path (bucket add, count add, sum/min/max CAS)
  // must be race-free and drop no observation.
  Histogram h;
  Counter c;
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, &g, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(1e-3 * (1 + (i + t) % 7));
        c.Increment();
        g.Add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 7e-3);
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_sum += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, h.count());
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("requests_total", "help", "path=\"a\"");
  Counter* b = reg.GetCounter("requests_total", "help", "path=\"a\"");
  Counter* other = reg.GetCounter("requests_total", "help", "path=\"b\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsRegistryTest, KindMismatchYieldsDetachedHandle) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("mixed_up", "as counter");
  // Same name as a gauge: the caller gets a usable handle that simply is
  // not wired into the family (an instrumentation typo must not crash).
  Gauge* g = reg.GetGauge("mixed_up", "as gauge");
  g->Set(5.0);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE mixed_up counter"), std::string::npos);
  EXPECT_EQ(text.find("mixed_up 5"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusTextGolden) {
  MetricsRegistry reg;
  reg.GetCounter("app_requests_total", "Requests served", "tenant=\"7\"")
      ->Increment(3);
  reg.GetGauge("app_queue_depth", "Requests waiting")->Set(2.0);
  Histogram* h = reg.GetHistogram("app_latency_seconds", "Request latency");
  h->Observe(0.5);   // Bucket upper edge 0.625.
  h->Observe(0.5);
  h->Observe(3.0);   // Bucket (frac 0.75, exp 2): upper edge 3.5.
  const std::string expected =
      "# HELP app_latency_seconds Request latency\n"
      "# TYPE app_latency_seconds histogram\n"
      "app_latency_seconds_bucket{le=\"0.625\"} 2\n"
      "app_latency_seconds_bucket{le=\"3.5\"} 3\n"
      "app_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "app_latency_seconds_sum 4\n"
      "app_latency_seconds_count 3\n"
      "# HELP app_queue_depth Requests waiting\n"
      "# TYPE app_queue_depth gauge\n"
      "app_queue_depth 2\n"
      "# HELP app_requests_total Requests served\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total{tenant=\"7\"} 3\n";
  EXPECT_EQ(reg.RenderPrometheusText(), expected);
}

TEST(MetricsRegistryTest, RenderSortsSeriesWithinFamily) {
  MetricsRegistry reg;
  reg.GetCounter("z_total", "zs", "k=\"b\"")->Increment(2);
  reg.GetCounter("z_total", "zs", "k=\"a\"")->Increment(1);
  const std::string text = reg.RenderPrometheusText();
  const std::size_t a = text.find("z_total{k=\"a\"} 1");
  const std::size_t b = text.find("z_total{k=\"b\"} 2");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
}

TEST(MetricsRegistryTest, GlobalRegistryCarriesLibraryFamilies) {
  // The library's instrumentation points register lazily; touching the
  // global here only proves the singleton is stable across calls.
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(ScopedLatencyTest, ObservesEnclosingScopeOnce) {
  Histogram h;
  { ScopedLatency probe(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
}

TEST(HistogramTest, BucketEdgesAreMonotone) {
  double prev = 0.0;
  for (std::size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    const double upper = Histogram::BucketUpper(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
  EXPECT_TRUE(std::isinf(Histogram::BucketUpper(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, BucketIndexMatchesEdges) {
  // Every observed value must land in a bucket whose (lower, upper] range
  // contains it: v <= upper(bucket) and v > upper(bucket - 1).
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> exp_dist(-8.0, 10.0);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(2.0, exp_dist(rng));
    const std::size_t idx = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpper(idx) * (1.0 + 1e-12));
    if (idx > 0) {
      EXPECT_GT(v, Histogram::BucketUpper(idx - 1) * (1.0 - 1e-12));
    }
  }
}

}  // namespace
}  // namespace topkpkg::obs
