#include "topkpkg/recsys/recommender.h"

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "topkpkg/data/generators.h"
#include "topkpkg/topk/naive_enumerator.h"

namespace topkpkg::recsys {
namespace {

class RecsysFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(
        std::move(data::GenerateUniform(40, 3, 7)).value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg,min")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 3);
    Rng rng(8);
    prior_ = std::make_unique<prob::GaussianMixture>(
        prob::GaussianMixture::Random(3, 2, 0.5, rng));
  }

  RecommenderOptions DefaultOptions() const {
    RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 60;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    return opts;
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;

  std::unique_ptr<PackageRecommender> NewRecommender(RecommenderOptions opts,
                                                     uint64_t seed) const {
    return std::move(PackageRecommender::Create(evaluator_.get(), prior_.get(),
                                                std::move(opts), seed))
        .value();
  }
};

TEST_F(RecsysFixture, SimulatedUserClicksTrueBest) {
  SimulatedUser user({1.0, 0.0, 0.0});
  Rng rng(1);
  std::vector<Vec> shown = {{0.2, 0.9, 0.9}, {0.8, 0.0, 0.0}, {0.5, 0.5, 0.5}};
  EXPECT_EQ(user.Click(shown, rng), 1u);
}

TEST_F(RecsysFixture, NoisyUserSometimesClicksRandomly) {
  SimulatedUser user({1.0, 0.0, 0.0}, /*noise_psi=*/0.4);
  Rng rng(2);
  std::vector<Vec> shown = {{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  int non_best = 0;
  for (int i = 0; i < 500; ++i) {
    if (user.Click(shown, rng) != 1u) ++non_best;
  }
  // With ψ=0.4, 60% of clicks are uniform over 2 → ~30% land on index 0.
  EXPECT_GT(non_best, 80);
  EXPECT_LT(non_best, 250);
}

TEST_F(RecsysFixture, RoundPresentsRecommendedPlusRandom) {
  auto rec = NewRecommender(DefaultOptions(), /*seed=*/11);
  SimulatedUser user({0.8, 0.4, -0.2});
  auto log = rec->RunRound(user);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->presented.size(), 6u);
  EXPECT_EQ(log->num_recommended, 3u);
  EXPECT_LT(log->clicked, log->presented.size());
  EXPECT_EQ(log->presented_vectors.size(), 6u);
  // Feedback recorded: clicked ≻ the other five (minus any cycle skips).
  EXPECT_GE(rec->feedback().num_edges(), 1u);
}

TEST_F(RecsysFixture, FeedbackAccumulatesAcrossRounds) {
  auto rec = NewRecommender(DefaultOptions(), 12);
  SimulatedUser user({0.8, 0.4, -0.2});
  std::size_t prev_edges = 0;
  for (int round = 0; round < 3; ++round) {
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_GE(rec->feedback().num_edges(), prev_edges);
    prev_edges = rec->feedback().num_edges();
  }
  EXPECT_GE(prev_edges, 5u);
}

TEST_F(RecsysFixture, ConvergesForNoiselessUser) {
  auto rec = NewRecommender(DefaultOptions(), 13);
  SimulatedUser user({0.9, 0.3, -0.4});
  auto clicks = rec->RunUntilConverged(user, /*stable_rounds=*/2,
                                       /*max_rounds=*/25);
  ASSERT_TRUE(clicks.ok()) << clicks.status();
  EXPECT_GE(*clicks, 2u);
  EXPECT_LE(*clicks, 25u);
  EXPECT_FALSE(rec->current_top_k().empty());
}

TEST_F(RecsysFixture, LearnedTopPackageHasHighTrueUtility) {
  // After elicitation the recommended top package should be close in true
  // utility to the global optimum under the hidden weights.
  auto rec = NewRecommender(DefaultOptions(), 14);
  Vec hidden = {0.9, 0.5, -0.3};
  SimulatedUser user(hidden);
  ASSERT_TRUE(rec->RunUntilConverged(user, 2, 20).ok());
  ASSERT_FALSE(rec->current_top_k().empty());
  double got = evaluator_->Utility(rec->current_top_k()[0], hidden);

  topk::NaivePackageEnumerator oracle(evaluator_.get());
  auto best = oracle.Search(hidden, 1);
  ASSERT_TRUE(best.ok());
  double optimum = best->packages[0].utility;
  EXPECT_GT(got, 0.5 * optimum)
      << "learned " << got << " vs optimum " << optimum;
}

TEST_F(RecsysFixture, PackageFilterRespected) {
  // The filter rejects singletons and the top-k an unfiltered session with
  // the same seed ranks in round 1: the top-k under the pool's mean weight
  // vector, which EXP searches. Round 1 draws the same pool either way, so
  // a mean-vector search that skipped the filter would rank only rejected
  // packages and leave the exploit slots empty.
  RecommenderOptions opts = DefaultOptions();
  SimulatedUser user({0.5, 0.5, 0.5});
  auto first = NewRecommender(opts, 15)->RunRound(user);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->top_k.empty());
  const std::vector<model::Package> rejected = first->top_k;
  opts.ranking.package_filter = [rejected](const model::Package& p) {
    return p.size() >= 2 &&
           std::find(rejected.begin(), rejected.end(), p) == rejected.end();
  };
  auto rec = NewRecommender(opts, 15);
  for (int round = 0; round < 3; ++round) {
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->num_recommended, opts.num_recommended) << "round " << round;
    for (const auto& p : log->top_k) {
      EXPECT_TRUE(opts.ranking.package_filter(p))
          << p.Key() << " round " << round;
    }
    for (const auto& p : log->presented) {
      EXPECT_TRUE(opts.ranking.package_filter(p))
          << p.Key() << " round " << round;
    }
  }
}

// RankingOptions::package_filter is the recommender's one filter: set on
// its own, it must reach the searches behind the exploit slots and the
// random explore slots alike, under every semantics. It once reached
// neither, because each round overwrote it with a separate (unset)
// recommender-level filter.
TEST_F(RecsysFixture, RankingPackageFilterCoversEveryPresentedPackage) {
  const auto all_even = [](const model::Package& p) {
    return std::all_of(p.items().begin(), p.items().end(),
                       [](model::ItemId id) { return id % 2 == 0; });
  };
  SimulatedUser user({0.7, -0.2, 0.4});
  for (ranking::Semantics sem :
       {ranking::Semantics::kExp, ranking::Semantics::kTkp,
        ranking::Semantics::kMpo}) {
    RecommenderOptions opts = DefaultOptions();
    opts.semantics = sem;
    opts.ranking.package_filter = all_even;
    auto rec = NewRecommender(opts, 18);
    for (int round = 0; round < 3; ++round) {
      auto log = rec->RunRound(user);
      ASSERT_TRUE(log.ok()) << log.status();
      const std::string ctx = std::string(ranking::SemanticsName(sem)) +
                              " round " + std::to_string(round);
      EXPECT_EQ(log->num_recommended, opts.num_recommended) << ctx;
      for (const auto& p : log->top_k) {
        EXPECT_TRUE(all_even(p)) << p.Key() << " " << ctx;
      }
      for (const auto& p : log->presented) {
        EXPECT_TRUE(all_even(p)) << p.Key() << " " << ctx;
      }
    }
  }
}

TEST_F(RecsysFixture, NoisyFeedbackStillRuns) {
  RecommenderOptions opts = DefaultOptions();
  opts.sampler_base.noise.psi = 0.7;
  auto rec = NewRecommender(opts, 16);
  SimulatedUser user({0.8, 0.2, -0.5}, /*noise_psi=*/0.7);
  for (int round = 0; round < 4; ++round) {
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
  }
}

TEST_F(RecsysFixture, RejectionAndImportanceSamplersWorkToo) {
  for (SamplerKind kind :
       {SamplerKind::kRejection, SamplerKind::kImportance}) {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler = kind;
    opts.num_samples = 40;
    auto rec = NewRecommender(opts, 17);
    SimulatedUser user({0.6, 0.3, 0.1});
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << SamplerKindName(kind) << ": " << log.status();
  }
}

TEST_F(RecsysFixture, IncrementalEngineReusesPoolAcrossRounds) {
  auto rec = NewRecommender(DefaultOptions(), /*seed=*/41);
  SimulatedUser user({0.7, 0.3, -0.2});
  std::size_t total_reused = 0;
  for (int round = 0; round < 4; ++round) {
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    // The pool always lands on its target size, partitioned into survivors
    // and fresh replacements.
    EXPECT_EQ(log->samples_reused + log->samples_resampled, 60u)
        << "round " << round;
    EXPECT_EQ(rec->pool().size(), 60u);
    // Reused samples' searches are served from the top-list cache.
    EXPECT_EQ(log->searches_skipped, log->samples_reused) << "round " << round;
    if (round == 0) {
      EXPECT_EQ(log->samples_reused, 0u);
      EXPECT_EQ(log->samples_resampled, 60u);
    }
    total_reused += log->samples_reused;
  }
  // Sec. 3.4's whole point: consistent feedback invalidates only part of the
  // pool, so later rounds reuse survivors instead of redrawing everything.
  EXPECT_GT(total_reused, 0u);
}

TEST_F(RecsysFixture, ImportanceSamplerReusesSurvivorsAcrossConstraintChange) {
  // Importance weights are relative to the proposal built from the
  // constraint set; since PR 5 a constraint change no longer forces a full
  // redraw — survivors are kept and their weights rescaled under the new
  // proposal, so the pool partitions into reused + resampled like the
  // other samplers (is_reweight_test covers the distributional side).
  RecommenderOptions opts = DefaultOptions();
  opts.sampler = SamplerKind::kImportance;
  opts.num_samples = 40;
  auto rec = NewRecommender(opts, /*seed=*/45);
  SimulatedUser user({0.6, 0.3, 0.1});
  std::size_t reused_after_feedback = 0;
  for (int round = 0; round < 3; ++round) {
    std::size_t edges_before = rec->feedback().num_edges();
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->samples_reused + log->samples_resampled, 40u)
        << "round " << round;
    EXPECT_EQ(log->searches_skipped, log->samples_reused)
        << "round " << round;
    if (round > 0 && edges_before > 0) {
      reused_after_feedback += log->samples_reused;
    }
  }
  EXPECT_GT(reused_after_feedback, 0u);
}

TEST_F(RecsysFixture, RoundEngineIsSeedDeterministic) {
  auto a = NewRecommender(DefaultOptions(), /*seed=*/43);
  auto b = NewRecommender(DefaultOptions(), /*seed=*/43);
  SimulatedUser user({0.8, -0.1, 0.4});
  for (int round = 0; round < 3; ++round) {
    auto la = a->RunRound(user);
    auto lb = b->RunRound(user);
    ASSERT_TRUE(la.ok());
    ASSERT_TRUE(lb.ok());
    EXPECT_EQ(la->top_k, lb->top_k) << "round " << round;
    EXPECT_EQ(la->clicked, lb->clicked) << "round " << round;
  }
}

TEST_F(RecsysFixture, TopKChangedMatchesSharedOverlapMetric) {
  auto rec = NewRecommender(DefaultOptions(), /*seed=*/44);
  SimulatedUser user({0.6, 0.5, -0.3});
  std::vector<model::Package> previous;
  for (int round = 0; round < 4; ++round) {
    auto log = rec->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    // top_k_changed and top_k_overlap must be two views of one metric, and
    // that metric must be TopKOverlap against the previous round's list.
    EXPECT_EQ(log->top_k_changed, log->top_k_overlap < 1.0)
        << "round " << round;
    EXPECT_DOUBLE_EQ(log->top_k_overlap, TopKOverlap(previous, log->top_k))
        << "round " << round;
    previous = log->top_k;
  }
}

TEST(TopKOverlapTest, JaccardOverlap) {
  model::Package a = model::Package::Of({1, 2});
  model::Package b = model::Package::Of({2, 3});
  model::Package c = model::Package::Of({3, 4});
  EXPECT_DOUBLE_EQ(TopKOverlap({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(TopKOverlap({a}, {}), 0.0);
  EXPECT_DOUBLE_EQ(TopKOverlap({a, b}, {a, b}), 1.0);
  EXPECT_DOUBLE_EQ(TopKOverlap({a, b}, {b, a}), 1.0);  // Order-insensitive.
  EXPECT_DOUBLE_EQ(TopKOverlap({a, b}, {b, c}), 1.0 / 3.0);
}

TEST(SamplerKindTest, Names) {
  EXPECT_STREQ(SamplerKindName(SamplerKind::kRejection), "RS");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kImportance), "IS");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kMcmc), "MS");
}

TEST_F(RecsysFixture, CreateAcceptsValidOptionsAndRunsARound) {
  auto rec = PackageRecommender::Create(evaluator_.get(), prior_.get(),
                                        DefaultOptions(), /*seed=*/11);
  ASSERT_TRUE(rec.ok()) << rec.status();
  SimulatedUser user({0.8, 0.4, -0.2});
  auto log = (*rec)->RunRound(user);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->presented.size(), 6u);
}

// Each rejection must be typed (kInvalidArgument) and name the offending
// field in the message, so callers can surface actionable configuration
// errors instead of crashing mid-round.
TEST_F(RecsysFixture, CreateRejectsInvalidOptionsWithTypedErrors) {
  const auto expect_rejects = [&](RecommenderOptions opts,
                                  const std::string& field) {
    auto rec = PackageRecommender::Create(evaluator_.get(), prior_.get(),
                                          std::move(opts), /*seed=*/11);
    ASSERT_FALSE(rec.ok()) << "expected rejection naming " << field;
    EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rec.status().message().find(field), std::string::npos)
        << rec.status();
  };

  // Class 1: null dependencies.
  auto no_eval = PackageRecommender::Create(nullptr, prior_.get(),
                                            DefaultOptions(), /*seed=*/11);
  ASSERT_FALSE(no_eval.ok());
  EXPECT_EQ(no_eval.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_eval.status().message().find("evaluator"), std::string::npos);
  auto no_prior = PackageRecommender::Create(evaluator_.get(), nullptr,
                                             DefaultOptions(), /*seed=*/11);
  ASSERT_FALSE(no_prior.ok());
  EXPECT_EQ(no_prior.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_prior.status().message().find("prior"), std::string::npos);

  // Class 2: dimensional mismatch between the prior and the item table.
  Rng rng(3);
  prob::GaussianMixture wrong_dim =
      prob::GaussianMixture::Random(/*dim=*/5, 2, 0.5, rng);
  auto mismatch = PackageRecommender::Create(evaluator_.get(), &wrong_dim,
                                             DefaultOptions(), /*seed=*/11);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("dimensionality"),
            std::string::npos);

  // Class 3: degenerate round shape.
  {
    RecommenderOptions opts = DefaultOptions();
    opts.num_samples = 0;
    expect_rejects(std::move(opts), "num_samples");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.num_recommended = 0;
    opts.num_random = 0;
    expect_rejects(std::move(opts), "num_recommended/num_random");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.ranking.k = 0;
    expect_rejects(std::move(opts), "ranking.k");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.semantics = ranking::Semantics::kTkp;  // Ranks by top-σ membership.
    opts.ranking.sigma = 0;
    expect_rejects(std::move(opts), "ranking.sigma");
  }

  // Class 4: unusable sampler configuration.
  {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler_base.box_lo = 1.0;
    opts.sampler_base.box_hi = -1.0;
    expect_rejects(std::move(opts), "box_lo");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler_base.noise.psi = 0.0;
    expect_rejects(std::move(opts), "psi");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler = SamplerKind::kImportance;
    opts.importance.grid_resolution = 0;
    expect_rejects(std::move(opts), "grid_resolution");
  }
  {
    // MCMC keeps every thinning-th chain state; zero has no meaning and
    // must not reach the first round's draw.
    RecommenderOptions opts = DefaultOptions();
    opts.sampler = SamplerKind::kMcmc;
    opts.mcmc.thinning = 0;
    expect_rejects(std::move(opts), "mcmc.thinning");
  }
  // Every draw runs with sampler_base; a nested copy set on its own was
  // silently overwritten (psi = 0.9 here ran with hard constraints).
  {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler = SamplerKind::kMcmc;
    opts.mcmc.base.noise.psi = 0.9;
    expect_rejects(std::move(opts), "mcmc.base");
  }
  {
    RecommenderOptions opts = DefaultOptions();
    opts.sampler = SamplerKind::kImportance;
    opts.importance.base.max_attempts_per_sample = 1000;
    expect_rejects(std::move(opts), "importance.base");
  }
}

}  // namespace
}  // namespace topkpkg::recsys
