// End-to-end pipeline sweeps: dataset → feedback → constrained sampling →
// per-sample package search → semantics aggregation, across every dataset
// family, sampler and ranking semantics. These are the "does the whole
// system hang together" tests complementing the per-module suites.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "topkpkg/data/generators.h"
#include "topkpkg/data/nba_like.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/prob/gaussian_mixture.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/sampling/importance_sampler.h"
#include "topkpkg/sampling/mcmc_sampler.h"
#include "topkpkg/sampling/rejection_sampler.h"

namespace topkpkg {
namespace {

struct Pipeline {
  std::unique_ptr<model::ItemTable> table;
  std::unique_ptr<model::Profile> profile;
  std::unique_ptr<model::PackageEvaluator> evaluator;
  std::unique_ptr<prob::GaussianMixture> prior;
  std::vector<pref::Preference> feedback;
};

Pipeline MakePipeline(data::SyntheticKind kind, uint64_t seed) {
  Pipeline p;
  p.table = std::make_unique<model::ItemTable>(
      std::move(data::GenerateSynthetic(kind, 300, 3, seed)).value());
  p.profile = std::make_unique<model::Profile>(
      std::move(model::Profile::Parse("sum,avg,max")).value());
  p.evaluator = std::make_unique<model::PackageEvaluator>(p.table.get(),
                                                          p.profile.get(), 3);
  Rng rng(seed + 1);
  p.prior = std::make_unique<prob::GaussianMixture>(
      prob::GaussianMixture::Random(3, 2, 0.5, rng));
  Vec hidden = rng.UniformVector(3, -1.0, 1.0);
  p.feedback =
      pref::GenerateConsistentPreferences(*p.evaluator, hidden, 8, 3, rng);
  return p;
}

Result<std::vector<sampling::WeightedSample>> DrawVia(
    recsys::SamplerKind kind, const Pipeline& p,
    const sampling::ConstraintChecker& checker, std::size_t n, Rng& rng) {
  switch (kind) {
    case recsys::SamplerKind::kRejection:
      return sampling::RejectionSampler(p.prior.get(), &checker).Draw(n, rng);
    case recsys::SamplerKind::kImportance: {
      TOPKPKG_ASSIGN_OR_RETURN(
          sampling::ImportanceSampler s,
          sampling::ImportanceSampler::Create(p.prior.get(), &checker));
      return s.Draw(n, rng);
    }
    case recsys::SamplerKind::kMcmc:
      return sampling::McmcSampler(p.prior.get(), &checker).Draw(n, rng);
  }
  return Status::InvalidArgument("kind");
}

class PipelineSweep
    : public ::testing::TestWithParam<
          std::tuple<data::SyntheticKind, recsys::SamplerKind,
                     ranking::Semantics>> {};

TEST_P(PipelineSweep, ProducesValidRankedPackages) {
  auto [kind, sampler, semantics] = GetParam();
  Pipeline p = MakePipeline(kind, 11);
  sampling::ConstraintChecker checker(p.feedback);
  Rng rng(12);
  auto samples = DrawVia(sampler, p, checker, 80, rng);
  ASSERT_TRUE(samples.ok()) << samples.status();
  for (const auto& s : *samples) {
    ASSERT_TRUE(checker.IsValid(s.w));
  }

  ranking::PackageRanker ranker(p.evaluator.get());
  ranking::RankingOptions opts;
  opts.k = 4;
  opts.sigma = 4;
  auto ranked = ranker.Rank(*samples, semantics, opts);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_FALSE(ranked->packages.empty());
  for (const auto& rp : ranked->packages) {
    EXPECT_GE(rp.package.size(), 1u);
    EXPECT_LE(rp.package.size(), 3u);
  }
  // Scores are ordered.
  for (std::size_t i = 1; i < ranked->packages.size(); ++i) {
    EXPECT_GE(ranked->packages[i - 1].score, ranked->packages[i].score);
  }
}

TEST_P(PipelineSweep, DeterministicAcrossRuns) {
  auto [kind, sampler, semantics] = GetParam();
  auto run = [&]() {
    Pipeline p = MakePipeline(kind, 21);
    sampling::ConstraintChecker checker(p.feedback);
    Rng rng(22);
    auto samples = DrawVia(sampler, p, checker, 40, rng);
    EXPECT_TRUE(samples.ok());
    ranking::PackageRanker ranker(p.evaluator.get());
    ranking::RankingOptions opts;
    opts.k = 3;
    opts.sigma = 3;
    auto ranked = ranker.Rank(*samples, semantics, opts);
    EXPECT_TRUE(ranked.ok());
    std::vector<std::string> keys;
    for (const auto& rp : ranked->packages) keys.push_back(rp.package.Key());
    return keys;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineSweep,
    ::testing::Combine(
        ::testing::Values(data::SyntheticKind::kUniform,
                          data::SyntheticKind::kPowerLaw,
                          data::SyntheticKind::kCorrelated,
                          data::SyntheticKind::kAntiCorrelated),
        ::testing::Values(recsys::SamplerKind::kRejection,
                          recsys::SamplerKind::kImportance,
                          recsys::SamplerKind::kMcmc),
        ::testing::Values(ranking::Semantics::kExp, ranking::Semantics::kTkp,
                          ranking::Semantics::kMpo)));

TEST(IntegrationTest, NbaPipelineEndToEnd) {
  auto table = std::move(data::GenerateNbaLikeExperiment(5, 3)).value();
  auto profile = std::move(model::Profile::Parse("sum,sum,avg,sum,avg"))
                     .value();
  model::PackageEvaluator evaluator(&table, &profile, 4);
  Rng rng(4);
  prob::GaussianMixture prior = prob::GaussianMixture::Random(5, 1, 0.5, rng);
  Vec hidden = rng.UniformVector(5, -1.0, 1.0);
  auto feedback =
      pref::GenerateConsistentPreferences(evaluator, hidden, 10, 4, rng);
  sampling::ConstraintChecker checker(feedback);
  sampling::McmcSampler sampler(&prior, &checker);
  auto samples = sampler.Draw(60, rng);
  ASSERT_TRUE(samples.ok()) << samples.status();
  ranking::PackageRanker ranker(&evaluator);
  ranking::RankingOptions opts;
  opts.k = 5;
  opts.sigma = 5;
  opts.limits.max_items_accessed = 800;
  opts.limits.max_queue = 500;
  auto ranked = ranker.Rank(*samples, ranking::Semantics::kExp, opts);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_FALSE(ranked->packages.empty());
}

// The elicitation loop must improve (or at least not regress) the true
// utility of the top recommendation relative to round one, across several
// hidden users.
TEST(IntegrationTest, ElicitationImprovesTrueUtility) {
  auto table = std::move(data::GenerateUniform(120, 3, 31)).value();
  auto profile = std::move(model::Profile::Parse("sum,avg,min")).value();
  model::PackageEvaluator evaluator(&table, &profile, 3);
  Rng prior_rng(32);
  prob::GaussianMixture prior =
      prob::GaussianMixture::Random(3, 2, 0.5, prior_rng);

  int improved = 0;
  const int kUsers = 5;
  for (int u = 0; u < kUsers; ++u) {
    Rng rng(100 + static_cast<uint64_t>(u));
    Vec hidden = rng.UniformVector(3, -1.0, 1.0);
    recsys::SimulatedUser user(hidden);
    recsys::RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 80;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    auto rec = std::move(recsys::PackageRecommender::Create(
                             &evaluator, &prior, opts,
                             200 + static_cast<uint64_t>(u)))
                   .value();
    auto first = rec->RunRound(user);
    ASSERT_TRUE(first.ok()) << first.status();
    double before = first->top_k.empty()
                        ? -1.0
                        : evaluator.Utility(first->top_k[0], hidden);
    for (int round = 0; round < 6; ++round) {
      ASSERT_TRUE(rec->RunRound(user).ok());
    }
    double after = rec->current_top_k().empty()
                       ? -1.0
                       : evaluator.Utility(rec->current_top_k()[0], hidden);
    if (after >= before - 1e-9) ++improved;
  }
  EXPECT_GE(improved, kUsers - 1)
      << "elicitation should (weakly) improve the recommendation for almost "
         "every user";
}

}  // namespace
}  // namespace topkpkg
