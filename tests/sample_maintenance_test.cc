#include "topkpkg/sampling/sample_maintenance.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"

namespace topkpkg::sampling {
namespace {

SamplePool RandomPool(std::size_t n, std::size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(WeightedSample{rng.UniformVector(dim, -1.0, 1.0), 1.0});
  }
  return SamplePool(std::move(samples));
}

// A random homogeneous hyperplane preference: on a symmetric sample cloud it
// splits the pool into violators/non-violators roughly evenly.
pref::Preference RandomHyperplanePreference(std::size_t dim, uint64_t seed) {
  Rng rng(seed);
  Vec direction = rng.UniformVector(dim, -1.0, 1.0);
  pref::Preference p;
  p.diff = Vec(dim, 0.0);
  for (std::size_t f = 0; f < dim; ++f) p.diff[f] = -direction[f];
  return p;
}

TEST(SampleMaintenanceTest, NaiveFindsExactViolators) {
  SamplePool pool(std::vector<WeightedSample>{
      {{0.5, 0.5}, 1.0}, {{-0.5, 0.5}, 1.0}, {{0.5, -0.5}, 1.0}});
  // ρ: better=(1,0), worse=(0,1) → query = worse-better = (-1,1);
  // violators have w1 - w0 > 0, i.e. only sample 1.
  pref::Preference p = pref::Preference::FromVectors({1.0, 0.0}, {0.0, 1.0});
  auto res = FindViolators(pool, p, MaintenanceStrategy::kNaive);
  ASSERT_EQ(res.violators.size(), 1u);
  EXPECT_EQ(res.violators[0], 1u);
  EXPECT_EQ(res.accesses, pool.size());
}

TEST(SampleMaintenanceTest, ZeroQueryVectorMeansNoViolators) {
  SamplePool pool = RandomPool(100, 3, 1);
  pref::Preference p;
  p.diff = {0.0, 0.0, 0.0};
  for (auto strategy : {MaintenanceStrategy::kNaive, MaintenanceStrategy::kTa,
                        MaintenanceStrategy::kHybrid}) {
    auto res = FindViolators(pool, p, strategy);
    EXPECT_TRUE(res.violators.empty());
  }
}

class MaintenanceEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MaintenanceEquivalence, TaAndHybridMatchNaive) {
  auto [seed, dim] = GetParam();
  SamplePool pool = RandomPool(500, static_cast<std::size_t>(dim),
                               static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) + 999);
  for (int trial = 0; trial < 10; ++trial) {
    Vec a = rng.UniformVector(static_cast<std::size_t>(dim), 0.0, 1.0);
    Vec b = rng.UniformVector(static_cast<std::size_t>(dim), 0.0, 1.0);
    pref::Preference p = pref::Preference::FromVectors(a, b);
    auto naive = FindViolators(pool, p, MaintenanceStrategy::kNaive);
    auto ta = FindViolators(pool, p, MaintenanceStrategy::kTa);
    auto hybrid = FindViolators(pool, p, MaintenanceStrategy::kHybrid, 0.025);
    auto sorted = [](std::vector<std::size_t> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(sorted(naive.violators), sorted(ta.violators));
    EXPECT_EQ(sorted(naive.violators), sorted(hybrid.violators));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaintenanceEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2, 4, 7)));

TEST(SampleMaintenanceTest, TaCheapWhenNoViolators) {
  // All samples deep inside the valid half-space: the TA threshold collapses
  // almost immediately.
  std::vector<WeightedSample> samples;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    Vec w = rng.UniformVector(2, 0.1, 1.0);
    w[1] = -w[1];  // w0 > 0 > w1.
    samples.push_back(WeightedSample{w, 1.0});
  }
  SamplePool pool(std::move(samples));
  // query = (-1, 1): w·query = w1 - w0 < 0 always → no violators.
  pref::Preference p = pref::Preference::FromVectors({1.0, 0.0}, {0.0, 1.0});
  auto ta = FindViolators(pool, p, MaintenanceStrategy::kTa);
  auto naive = FindViolators(pool, p, MaintenanceStrategy::kNaive);
  EXPECT_TRUE(ta.violators.empty());
  EXPECT_LT(ta.accesses, naive.accesses / 10);
}

TEST(SampleMaintenanceTest, HybridFallsBackWhenManyViolators) {
  // Everything violates: hybrid must abandon TA quickly.
  std::vector<WeightedSample> samples;
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    Vec w = rng.UniformVector(2, 0.1, 1.0);  // All positive coords.
    samples.push_back(WeightedSample{w, 1.0});
  }
  SamplePool pool(std::move(samples));
  // query = (1, 1) → w·query > 0 for every sample.
  pref::Preference p;
  p.diff = {-1.0, -1.0};
  auto hybrid = FindViolators(pool, p, MaintenanceStrategy::kHybrid, 0.025);
  EXPECT_EQ(hybrid.violators.size(), pool.size());
  EXPECT_TRUE(hybrid.fell_back);
  // Cost stays within (1+γ)|S| plus the fallback scan.
  EXPECT_LE(hybrid.accesses, static_cast<std::size_t>(2.1 * pool.size()));
}

TEST(SampleMaintenanceTest, HybridGammaControlsFallback) {
  SamplePool pool = RandomPool(2000, 4, 9);
  Rng rng(10);
  Vec a = rng.UniformVector(4, 0.0, 1.0);
  Vec b = rng.UniformVector(4, 0.0, 1.0);
  pref::Preference p = pref::Preference::FromVectors(a, b);
  auto tight = FindViolators(pool, p, MaintenanceStrategy::kHybrid, 0.0);
  auto loose = FindViolators(pool, p, MaintenanceStrategy::kHybrid, 5.0);
  auto naive = FindViolators(pool, p, MaintenanceStrategy::kNaive);
  auto ta = FindViolators(pool, p, MaintenanceStrategy::kTa);
  auto sorted = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  // Same answers regardless of γ.
  EXPECT_EQ(sorted(tight.violators), sorted(naive.violators));
  EXPECT_EQ(sorted(loose.violators), sorted(naive.violators));
  // γ large enough never falls back, matching pure TA's access count.
  EXPECT_EQ(loose.accesses, ta.accesses);
}

TEST(SampleMaintenanceTest, RandomHyperplaneSplitsPool) {
  SamplePool pool = RandomPool(200, 3, 11);
  pref::Preference p = RandomHyperplanePreference(3, 12);
  auto res = FindViolators(pool, p, MaintenanceStrategy::kNaive);
  // Roughly half the pool on a random symmetric distribution.
  EXPECT_GT(res.violators.size(), pool.size() / 5);
  EXPECT_LT(res.violators.size(), pool.size() * 4 / 5);
}

TEST(SampleMaintenanceTest, PoolBatchViewTracksMutations) {
  SamplePool pool = RandomPool(10, 3, 41);
  const WeightBatch& batch = pool.batch();
  EXPECT_EQ(batch.size(), 10u);
  EXPECT_EQ(batch.dim(), 3u);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t f = 0; f < 3; ++f) {
      EXPECT_EQ(batch.at(f, i), pool.sample(i).w[f]);
    }
  }
  pool.Append({WeightedSample{{0.1, 0.2, 0.3}, 1.0}});
  EXPECT_EQ(pool.batch().size(), 11u);
  EXPECT_EQ(pool.batch().at(2, 10), 0.3);
}

}  // namespace
}  // namespace topkpkg::sampling
