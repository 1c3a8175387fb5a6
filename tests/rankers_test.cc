#include "topkpkg/ranking/rankers.h"

#include <memory>

#include <gtest/gtest.h>

namespace topkpkg::ranking {
namespace {

using model::Package;

// The full worked example of Sec. 2.2 / Fig. 2: three items, profile
// (sum1, avg2), φ=2, and three discrete weight vectors w1..w3 with
// probabilities 0.3/0.4/0.3 standing in for the sample pool.
class Fig2Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(std::move(
        model::ItemTable::Create({{0.6, 0.2}, {0.4, 0.4}, {0.2, 0.4}}))
        .value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 2);
    samples_ = {
        {{0.5, 0.1}, 0.3},
        {{0.1, 0.5}, 0.4},
        {{0.1, 0.1}, 0.3},
    };
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::vector<sampling::WeightedSample> samples_;
};

TEST_F(Fig2Fixture, ExpTop2IsP4ThenP5) {
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  // Per-sample lists long enough to cover the whole 6-package space, so the
  // paper's conditional-mean estimator equals the exact expectation.
  opts.k = 6;
  opts.sigma = 2;
  auto result = ranker.Rank(samples_, Semantics::kExp, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->packages.size(), 2u);
  // Example 1: p4 = {t1,t2} has the largest expected utility (0.415),
  // followed by p5 = {t2,t3} (0.392).
  EXPECT_EQ(result->packages[0].package, Package::Of({0, 1}));
  EXPECT_NEAR(result->packages[0].score, 0.415, 1e-9);
  EXPECT_EQ(result->packages[1].package, Package::Of({1, 2}));
  EXPECT_NEAR(result->packages[1].score, 0.392, 1e-9);
}

TEST_F(Fig2Fixture, ExpExpectedUtilityOfP1Is0262) {
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 6;
  auto result = ranker.Rank(samples_, Semantics::kExp, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& rp : result->packages) {
    if (rp.package == Package::Of({0})) {
      EXPECT_NEAR(rp.score, 0.262, 1e-9);  // Example 1's hand computation.
    }
  }
}

TEST_F(Fig2Fixture, TkpTop2IsP5ThenP4) {
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  auto result = ranker.Rank(samples_, Semantics::kTkp, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->packages.size(), 2u);
  // Example 2: P(p5 in top-2) = 0.7, P(p4 in top-2) = 0.6.
  EXPECT_EQ(result->packages[0].package, Package::Of({1, 2}));
  EXPECT_NEAR(result->packages[0].score, 0.7, 1e-9);
  EXPECT_EQ(result->packages[1].package, Package::Of({0, 1}));
  EXPECT_NEAR(result->packages[1].score, 0.6, 1e-9);
}

TEST_F(Fig2Fixture, MpoWinningListIsP5P2) {
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  auto result = ranker.Rank(samples_, Semantics::kMpo, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->packages.size(), 2u);
  // Example 3: the most probable top-2 list is w2's list p5, p2 (prob 0.4).
  EXPECT_EQ(result->packages[0].package, Package::Of({1, 2}));
  EXPECT_EQ(result->packages[1].package, Package::Of({1}));
  EXPECT_NEAR(result->packages[0].score, 0.4, 1e-9);
  EXPECT_NEAR(result->packages[1].score, 0.4, 1e-9);
}

TEST_F(Fig2Fixture, DifferentSemanticsDisagreeOnThisExample) {
  // The punchline of Sec. 2.2: EXP, TKP and MPO produce three different
  // top-2 lists on the same distribution.
  PackageRanker ranker(evaluator_.get());
  RankingOptions exp_opts;
  exp_opts.k = 6;
  auto exp = ranker.Rank(samples_, Semantics::kExp, exp_opts);
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  auto tkp = ranker.Rank(samples_, Semantics::kTkp, opts);
  auto mpo = ranker.Rank(samples_, Semantics::kMpo, opts);
  ASSERT_TRUE(exp.ok());
  ASSERT_TRUE(tkp.ok());
  ASSERT_TRUE(mpo.ok());
  EXPECT_NE(exp->packages[0].package, tkp->packages[0].package);
  EXPECT_NE(tkp->packages[1].package, mpo->packages[1].package);
}

TEST_F(Fig2Fixture, AggregateReusableAcrossSemantics) {
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  auto lists = ranker.ComputeSampleLists(samples_, opts);
  ASSERT_TRUE(lists.ok());
  ASSERT_EQ(lists->size(), 3u);
  std::vector<const SampleTopList*> ptrs;
  for (const SampleTopList& l : *lists) ptrs.push_back(&l);
  RankingResult tkp = ranker.Aggregate(samples_, ptrs, Semantics::kTkp, opts);
  RankingResult mpo = ranker.Aggregate(samples_, ptrs, Semantics::kMpo, opts);
  EXPECT_EQ(tkp.packages[0].package, Package::Of({1, 2}));
  EXPECT_EQ(mpo.packages[1].package, Package::Of({1}));
}

TEST_F(Fig2Fixture, ImportanceWeightsScaleCounts) {
  // Doubling every weight must not change any ranking (scores are
  // normalized by total weight).
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  std::vector<sampling::WeightedSample> doubled = samples_;
  for (auto& s : doubled) s.weight *= 2.0;
  auto a = ranker.Rank(samples_, Semantics::kTkp, opts);
  auto b = ranker.Rank(doubled, Semantics::kTkp, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->packages.size(), b->packages.size());
  for (std::size_t i = 0; i < a->packages.size(); ++i) {
    EXPECT_EQ(a->packages[i].package, b->packages[i].package);
    EXPECT_NEAR(a->packages[i].score, b->packages[i].score, 1e-12);
  }
}

TEST_F(Fig2Fixture, ExpRanksOnlyPackagesThePackageFilterPasses) {
  // EXP adds the top list under the mean weight vector to the candidates;
  // that search must take the filter like the per-sample ones. Rejecting
  // every package holding t2 rejects the unfiltered EXP top-2 (p4, p5).
  PackageRanker ranker(evaluator_.get());
  RankingOptions opts;
  opts.k = 2;
  opts.sigma = 2;
  opts.package_filter = [](const Package& p) { return !p.Contains(1); };
  auto result = ranker.Rank(samples_, Semantics::kExp, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->packages.size(), 2u);
  for (const auto& rp : result->packages) {
    EXPECT_FALSE(rp.package.Contains(1)) << rp.package.Key();
  }
}

TEST(RankersTest, EmptySamplePoolYieldsEmptyResult) {
  auto table = std::move(model::ItemTable::Create({{1.0}})).value();
  auto profile = std::move(model::Profile::Parse("sum")).value();
  model::PackageEvaluator ev(&table, &profile, 1);
  PackageRanker ranker(&ev);
  auto result = ranker.Rank({}, Semantics::kExp, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->packages.empty());
}

TEST(RankersTest, SemanticsNames) {
  EXPECT_STREQ(SemanticsName(Semantics::kExp), "EXP");
  EXPECT_STREQ(SemanticsName(Semantics::kTkp), "TKP");
  EXPECT_STREQ(SemanticsName(Semantics::kMpo), "MPO");
}

}  // namespace
}  // namespace topkpkg::ranking
