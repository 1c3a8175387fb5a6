// Importance-sampler survivor reweighting (Sec. 3.4 reuse for IS): when the
// constraint set changes, surviving pool samples are kept and their
// importance weights recomputed under the rebuilt proposal instead of
// redrawing the whole pool. These tests check (a) the reweighted survivor
// population is statistically equivalent to the full-redraw path's accepted
// distribution, (b) reweighted weights are exactly the q = P/Q_new the new
// sampler would attach, and (c) the recommender actually reuses importance
// pools across constraint-changing rounds now.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/data/generators.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/sampling/importance_sampler.h"

namespace topkpkg::sampling {
namespace {

// Half-space constraint w · diff >= 0 from an explicit difference vector.
pref::Preference HalfSpace(const Vec& diff, const std::string& name) {
  pref::Preference p;
  p.diff = diff;
  p.better_key = name + "+";
  p.worse_key = name + "-";
  return p;
}

// Weighted per-coordinate mean of a sample set.
Vec WeightedMean(const std::vector<WeightedSample>& samples) {
  Vec mean(samples.empty() ? 0 : samples[0].w.size(), 0.0);
  double total = 0.0;
  for (const WeightedSample& s : samples) {
    total += s.weight;
    for (std::size_t i = 0; i < mean.size(); ++i) {
      mean[i] += s.weight * s.w[i];
    }
  }
  for (double& x : mean) x /= total;
  return mean;
}

TEST(IsReweightTest, SurvivorReweightingMatchesRedrawDistribution) {
  Rng rng(424242);
  prob::GaussianMixture prior = prob::GaussianMixture::Random(3, 2, 0.5, rng);

  const pref::Preference a = HalfSpace({1.0, 0.0, 0.0}, "a");
  const pref::Preference b = HalfSpace({0.4, 1.0, 0.0}, "b");
  ConstraintChecker old_checker({a});
  ConstraintChecker new_checker({a, b});

  auto old_sampler = ImportanceSampler::Create(&prior, &old_checker);
  auto new_sampler = ImportanceSampler::Create(&prior, &new_checker);
  ASSERT_TRUE(old_sampler.ok()) << old_sampler.status();
  ASSERT_TRUE(new_sampler.ok()) << new_sampler.status();

  const std::size_t n = 4000;
  auto pool = old_sampler->Draw(n, rng);
  ASSERT_TRUE(pool.ok()) << pool.status();

  // Maintenance path: keep the survivors of the new constraint set,
  // reweighted under the new proposal.
  std::vector<WeightedSample> survivors;
  for (const WeightedSample& s : *pool) {
    if (!new_checker.IsValid(s.w)) continue;
    WeightedSample kept = s;
    kept.weight = new_sampler->ImportanceWeight(kept.w);
    survivors.push_back(std::move(kept));
  }
  // The scenario must actually exercise reuse: a meaningful survivor
  // fraction, and a meaningful evicted fraction.
  ASSERT_GT(survivors.size(), n / 4);
  ASSERT_LT(survivors.size(), n);

  // Redraw path: a fresh accepted population under the new constraint set.
  auto redraw = new_sampler->Draw(n, rng);
  ASSERT_TRUE(redraw.ok()) << redraw.status();

  // Deterministic Create(): reweighted survivor weights are exactly the
  // q = P/Q_new an independently created new-proposal sampler attaches.
  auto new_sampler_again = ImportanceSampler::Create(&prior, &new_checker);
  ASSERT_TRUE(new_sampler_again.ok());
  for (const WeightedSample& s : survivors) {
    EXPECT_EQ(s.weight, new_sampler_again->ImportanceWeight(s.w));
    EXPECT_TRUE(std::isfinite(s.weight));
    EXPECT_GT(s.weight, 0.0);
  }

  // Statistical equivalence of the two accepted, weighted populations
  // (both estimate the posterior restricted to the new polytope; exact as
  // Q_old → Q_new, and already close here where one constraint shifted the
  // proposal). Fixed seeds — no flake.
  const Vec mean_survivors = WeightedMean(survivors);
  const Vec mean_redraw = WeightedMean(*redraw);
  for (std::size_t i = 0; i < mean_survivors.size(); ++i) {
    EXPECT_NEAR(mean_survivors[i], mean_redraw[i], 0.08)
        << "coordinate " << i;
  }
}

class IsRecommenderFixture : public ::testing::Test {
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

  recsys::RecommenderOptions Options(double psi) const {
    recsys::RecommenderOptions opts;
    opts.sampler = recsys::SamplerKind::kImportance;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 60;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    opts.sampler_base.noise.psi = psi;
    return opts;
  }

  // Runs `rounds` rounds and returns true iff some round that entered with
  // *fresh* constraints (feedback grew in the previous round) still reused
  // pool survivors — exactly what the pre-reweighting engine could never do
  // (it full-redrew importance pools on any constraint change).
  bool SawReuseAcrossConstraintChange(recsys::PackageRecommender& rec,
                                      const recsys::SimulatedUser& user,
                                      int rounds) {
    bool saw = false;
    std::size_t edges_before = 0;
    bool grew_last_round = false;
    for (int round = 0; round < rounds; ++round) {
      auto log = rec.RunRound(user);
      EXPECT_TRUE(log.ok()) << log.status();
      if (!log.ok()) return false;
      if (round > 0 && grew_last_round && log->samples_reused > 0) {
        saw = true;
      }
      grew_last_round = rec.feedback().num_edges() > edges_before;
      edges_before = rec.feedback().num_edges();
    }
    return saw;
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;

  std::unique_ptr<recsys::PackageRecommender> NewRecommender(
      recsys::RecommenderOptions opts, uint64_t seed) const {
    return std::move(recsys::PackageRecommender::Create(
                         evaluator_.get(), prior_.get(), std::move(opts),
                         seed))
        .value();
  }
};

TEST_F(IsRecommenderFixture, ImportancePoolReusesSurvivorsAcrossFeedback) {
  auto rec = NewRecommender(Options(/*psi=*/1.0), /*seed=*/11);
  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  EXPECT_TRUE(SawReuseAcrossConstraintChange(*rec, user, 5));
  // Weights stay a coherent importance-weighted pool.
  for (std::size_t i = 0; i < rec->pool().size(); ++i) {
    EXPECT_TRUE(std::isfinite(rec->pool().sample(i).weight));
    EXPECT_GT(rec->pool().sample(i).weight, 0.0);
  }
}

TEST_F(IsRecommenderFixture, NoisyImportancePoolAlsoReuses) {
  auto rec = NewRecommender(Options(/*psi=*/0.9), /*seed=*/13);
  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  EXPECT_TRUE(SawReuseAcrossConstraintChange(*rec, user, 5));
}

}  // namespace
}  // namespace topkpkg::sampling
