#include "topkpkg/sampling/sample_pool.h"

#include <gtest/gtest.h>

namespace topkpkg::sampling {
namespace {

std::vector<WeightedSample> MakeSamples(std::initializer_list<Vec> ws) {
  std::vector<WeightedSample> out;
  for (const Vec& w : ws) out.push_back(WeightedSample{w, 1.0});
  return out;
}

TEST(SamplePoolTest, BasicAccessors) {
  SamplePool pool(MakeSamples({{0.1, 0.9}, {0.5, 0.5}}));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.dim(), 2u);
  EXPECT_DOUBLE_EQ(pool.sample(1).w[0], 0.5);
}

TEST(SamplePoolTest, SortedListsAscendingPerFeature) {
  SamplePool pool(MakeSamples({{0.3, 0.9}, {0.1, 0.5}, {0.2, 0.7}}));
  const auto& lists = pool.sorted_lists();
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_DOUBLE_EQ(lists[0][0].first, 0.1);
  EXPECT_EQ(lists[0][0].second, 1u);
  EXPECT_DOUBLE_EQ(lists[0][2].first, 0.3);
  EXPECT_DOUBLE_EQ(lists[1][0].first, 0.5);
}

TEST(SamplePoolTest, AppendInvalidatesLists) {
  SamplePool pool(MakeSamples({{0.5}}));
  EXPECT_EQ(pool.sorted_lists()[0].size(), 1u);
  pool.Append(MakeSamples({{0.1}}));
  const auto& lists = pool.sorted_lists();
  ASSERT_EQ(lists[0].size(), 2u);
  EXPECT_DOUBLE_EQ(lists[0][0].first, 0.1);
}

TEST(SamplePoolTest, ReplaceRemovesAndAppends) {
  SamplePool pool(MakeSamples({{0.1}, {0.2}, {0.3}, {0.4}}));
  pool.Replace({1, 3}, MakeSamples({{0.9}}));
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_DOUBLE_EQ(pool.sample(0).w[0], 0.1);
  EXPECT_DOUBLE_EQ(pool.sample(1).w[0], 0.3);
  EXPECT_DOUBLE_EQ(pool.sample(2).w[0], 0.9);
}

TEST(SamplePoolTest, ReplaceHandlesUnsortedDuplicateIndices) {
  // Regression: without dedup before the compaction pass, a duplicated
  // violator index would erase the wrong sample (and over-shrink the pool).
  SamplePool pool(MakeSamples({{0.1}, {0.2}, {0.3}}));
  PoolDelta delta = pool.Replace({2, 0, 2}, {});
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_DOUBLE_EQ(pool.sample(0).w[0], 0.2);
  // The delta reports the one survivor, even for the duplicated index.
  EXPECT_TRUE(delta.added_ids.empty());
  ASSERT_EQ(delta.surviving_ids.size(), 1u);
  EXPECT_EQ(delta.surviving_ids[0], pool.id(0));
}

TEST(SamplePoolTest, MintsStableUniqueIds) {
  SamplePool pool(MakeSamples({{0.1}, {0.2}, {0.3}}));
  EXPECT_NE(pool.id(0), kInvalidSampleId);
  EXPECT_NE(pool.id(0), pool.id(1));
  EXPECT_NE(pool.id(1), pool.id(2));
  const SampleId survivor = pool.id(2);
  // Ids travel with samples through Replace's compaction and are never
  // reused for fresh samples.
  PoolDelta delta = pool.Replace({0, 1}, MakeSamples({{0.9}}));
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.id(0), survivor);
  EXPECT_NE(pool.id(1), survivor);
  ASSERT_EQ(delta.added_ids.size(), 1u);
  EXPECT_EQ(delta.added_ids[0], pool.id(1));
  EXPECT_EQ(delta.surviving_ids, (std::vector<SampleId>{survivor}));
}

TEST(SamplePoolTest, AppendReportsDelta) {
  SamplePool pool(MakeSamples({{0.1}, {0.2}}));
  PoolDelta delta = pool.Append(MakeSamples({{0.3}, {0.4}}));
  EXPECT_EQ(delta.surviving_ids.size(), 2u);
  ASSERT_EQ(delta.added_ids.size(), 2u);
  EXPECT_EQ(delta.added_ids[0], pool.id(2));
  EXPECT_EQ(delta.added_ids[1], pool.id(3));
  // added ∪ surviving covers the whole pool.
  EXPECT_EQ(delta.added_ids.size() + delta.surviving_ids.size(), pool.size());
}

TEST(SamplePoolTest, AppendOverwritesIncomingIds) {
  SamplePool pool(MakeSamples({{0.1}}));
  std::vector<WeightedSample> fresh = MakeSamples({{0.2}});
  fresh[0].id = 12345;  // A stale id from another pool must not leak in.
  pool.Append(std::move(fresh));
  EXPECT_NE(pool.id(1), 12345u);
  EXPECT_NE(pool.id(1), pool.id(0));
}

TEST(SamplePoolTest, EmptyPool) {
  SamplePool pool;
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.dim(), 0u);
  pool.Append(MakeSamples({{0.5, 0.5}}));
  EXPECT_EQ(pool.dim(), 2u);
}

}  // namespace
}  // namespace topkpkg::sampling
