// Cache-equivalence property tests for the incremental serving engine: across
// multiple feedback rounds of a persistent pool (violators replaced, the rest
// surviving), IncrementalRanker must produce a RankingResult bit-identical to
// the from-scratch PackageRanker oracle over the same pool — for all three
// semantics.

#include "topkpkg/ranking/incremental_ranker.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sampling_test_util.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/sampling/rejection_sampler.h"
#include "topkpkg/sampling/sample_maintenance.h"
#include "topkpkg/sampling/sample_pool.h"

namespace topkpkg::ranking {
namespace {

using sampling_test::DefaultPrior;
using sampling_test::RandomConstraints;

void ExpectSameResult(const RankingResult& got, const RankingResult& oracle,
                      const char* context) {
  EXPECT_EQ(got.any_truncated, oracle.any_truncated) << context;
  ASSERT_EQ(got.packages.size(), oracle.packages.size()) << context;
  for (std::size_t i = 0; i < got.packages.size(); ++i) {
    EXPECT_EQ(got.packages[i].package, oracle.packages[i].package)
        << context << " rank " << i;
    // Bitwise equality: the incremental path must aggregate the exact same
    // per-sample lists in the exact same order as the oracle.
    EXPECT_EQ(got.packages[i].score, oracle.packages[i].score)
        << context << " rank " << i;
  }
}

class IncrementalRankerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(
        std::move(data::GenerateUniform(30, 3, 5)).value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg,min")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 3);
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
};

TEST_F(IncrementalRankerFixture, MultiRoundEquivalenceAllSemantics) {
  Rng rng(71);
  Vec hidden = {0.8, -0.3, 0.5};
  prob::GaussianMixture prior = DefaultPrior(3, 72);
  sampling::ConstraintChecker empty({});
  auto initial = sampling::RejectionSampler(&prior, &empty).Draw(80, rng);
  ASSERT_TRUE(initial.ok()) << initial.status();
  sampling::SamplePool pool(std::move(initial).value());

  RankingOptions opts;
  opts.k = 4;
  opts.sigma = 3;

  PackageRanker oracle(evaluator_.get());
  IncrementalRanker incremental(evaluator_.get());

  std::vector<pref::Preference> feedback;
  for (int round = 0; round < 6; ++round) {
    for (Semantics sem :
         {Semantics::kExp, Semantics::kTkp, Semantics::kMpo}) {
      auto from_scratch = oracle.Rank(pool.samples(), sem, opts);
      ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();

      auto incr = incremental.Rank(pool, sem, opts);
      ASSERT_TRUE(incr.ok()) << incr.status();
      const std::string ctx = std::string("round ") + std::to_string(round) +
                              " " + SemanticsName(sem);
      ExpectSameResult(*incr, *from_scratch, ctx.c_str());
    }

    // Next round: one new consistent preference invalidates some samples;
    // replace exactly the violators, as the serving engine does.
    auto fresh_pref = RandomConstraints(1, hidden, rng);
    feedback.push_back(fresh_pref[0]);
    auto found = sampling::FindViolators(
        pool, fresh_pref[0], sampling::MaintenanceStrategy::kHybrid);
    sampling::ConstraintChecker checker(feedback);
    std::vector<sampling::WeightedSample> fresh;
    if (!found.violators.empty()) {
      auto drawn = sampling::RejectionSampler(&prior, &checker)
                       .Draw(found.violators.size(), rng);
      ASSERT_TRUE(drawn.ok()) << drawn.status();
      fresh = std::move(drawn).value();
    }
    pool.Replace(found.violators, std::move(fresh));
  }
}

TEST_F(IncrementalRankerFixture, ReuseStatsReflectPoolChanges) {
  Rng rng(81);
  prob::GaussianMixture prior = DefaultPrior(3, 82);
  sampling::ConstraintChecker empty({});
  sampling::RejectionSampler sampler(&prior, &empty);
  auto initial = sampler.Draw(40, rng);
  ASSERT_TRUE(initial.ok());
  sampling::SamplePool pool(std::move(initial).value());

  RankingOptions opts;
  opts.k = 3;
  opts.sigma = 3;
  IncrementalRanker ranker(evaluator_.get());

  IncrementalRankStats stats;
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kTkp, opts, &stats).ok());
  EXPECT_EQ(stats.searches_run, 40u);
  EXPECT_EQ(stats.searches_skipped, 0u);
  EXPECT_EQ(ranker.cache_size(), 40u);

  auto fresh = sampler.Draw(5, rng);
  ASSERT_TRUE(fresh.ok());
  pool.Replace({0, 7, 11, 23, 39}, std::move(fresh).value());
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kTkp, opts, &stats).ok());
  EXPECT_EQ(stats.evicted, 5u);
  EXPECT_EQ(stats.searches_run, 5u);
  EXPECT_EQ(stats.searches_skipped, 35u);
  EXPECT_FALSE(stats.cache_invalidated);
  EXPECT_EQ(ranker.cache_size(), 40u);
}

TEST_F(IncrementalRankerFixture, LimitChangeInvalidatesCache) {
  Rng rng(91);
  prob::GaussianMixture prior = DefaultPrior(3, 92);
  sampling::ConstraintChecker empty({});
  auto initial = sampling::RejectionSampler(&prior, &empty).Draw(20, rng);
  ASSERT_TRUE(initial.ok());
  sampling::SamplePool pool(std::move(initial).value());

  RankingOptions opts;
  opts.k = 3;
  opts.sigma = 3;
  IncrementalRanker ranker(evaluator_.get());
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kExp, opts).ok());
  const std::uint64_t epoch = ranker.ranking_epoch();

  // Same options: cache stays.
  IncrementalRankStats stats;
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kExp, opts, &stats).ok());
  EXPECT_EQ(ranker.ranking_epoch(), epoch);
  EXPECT_EQ(stats.searches_run, 0u);

  // Tighter search limits change every cached list's provenance: the whole
  // cache must go, and the fresh results must match a from-scratch oracle
  // under the new limits.
  opts.limits.max_items_accessed = 64;
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kExp, opts, &stats).ok());
  EXPECT_GT(ranker.ranking_epoch(), epoch);
  EXPECT_TRUE(stats.cache_invalidated);
  EXPECT_EQ(stats.searches_run, 20u);

  PackageRanker oracle(evaluator_.get());
  auto from_scratch = oracle.Rank(pool.samples(), Semantics::kExp, opts);
  auto incr = ranker.Rank(pool, Semantics::kExp, opts);
  ASSERT_TRUE(from_scratch.ok());
  ASSERT_TRUE(incr.ok());
  ExpectSameResult(*incr, *from_scratch, "after limit change");
}

TEST_F(IncrementalRankerFixture, InvalidateAllClearsCache) {
  Rng rng(95);
  prob::GaussianMixture prior = DefaultPrior(3, 96);
  sampling::ConstraintChecker empty({});
  auto initial = sampling::RejectionSampler(&prior, &empty).Draw(10, rng);
  ASSERT_TRUE(initial.ok());
  sampling::SamplePool pool(std::move(initial).value());

  RankingOptions opts;
  IncrementalRanker ranker(evaluator_.get());
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kTkp, opts).ok());
  EXPECT_EQ(ranker.cache_size(), 10u);
  const std::uint64_t epoch = ranker.ranking_epoch();
  ranker.InvalidateAll();
  EXPECT_EQ(ranker.cache_size(), 0u);
  EXPECT_GT(ranker.ranking_epoch(), epoch);
}

// Rank evicts by the pool alone, so no caller reports removals: a cache
// entry whose sample is not in the pool (planted here through
// RestoreSnapshot) is dropped by the next Rank, which still serves the
// pool's own entries from the cache.
TEST_F(IncrementalRankerFixture, RankDropsEntriesForSamplesNotInThePool) {
  Rng rng(97);
  prob::GaussianMixture prior = DefaultPrior(3, 98);
  sampling::ConstraintChecker empty({});
  auto initial = sampling::RejectionSampler(&prior, &empty).Draw(12, rng);
  ASSERT_TRUE(initial.ok());
  sampling::SamplePool pool(std::move(initial).value());

  RankingOptions opts;
  opts.k = 3;
  opts.sigma = 3;
  IncrementalRanker ranker(evaluator_.get());
  ASSERT_TRUE(ranker.Rank(pool, Semantics::kTkp, opts).ok());

  sampling::SampleId stranger = 0;
  for (const auto& s : pool.samples()) stranger = std::max(stranger, s.id);
  ++stranger;
  const IncrementalRanker::CacheSnapshot snap = ranker.Snapshot();
  std::vector<std::pair<sampling::SampleId, SampleTopList>> entries;
  for (const auto& [id, list] : snap.entries) entries.emplace_back(id, *list);
  entries.emplace_back(stranger, *snap.entries.front().second);
  ranker.RestoreSnapshot(snap.has_options, snap.options, snap.epoch,
                         std::move(entries));
  ASSERT_EQ(ranker.cache_size(), pool.size() + 1);

  IncrementalRankStats stats;
  auto incr = ranker.Rank(pool, Semantics::kTkp, opts, &stats);
  ASSERT_TRUE(incr.ok()) << incr.status();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.searches_run, 0u);
  EXPECT_EQ(stats.searches_skipped, pool.size());
  EXPECT_EQ(ranker.cache_size(), pool.size());
  for (const auto& [id, list] : ranker.Snapshot().entries) {
    EXPECT_NE(id, stranger);
  }

  PackageRanker oracle(evaluator_.get());
  auto from_scratch = oracle.Rank(pool.samples(), Semantics::kTkp, opts);
  ASSERT_TRUE(from_scratch.ok());
  ExpectSameResult(*incr, *from_scratch, "after dropping the stranger");
}

}  // namespace
}  // namespace topkpkg::ranking
