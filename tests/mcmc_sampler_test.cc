#include "topkpkg/sampling/mcmc_sampler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sampling_test_util.h"

namespace topkpkg::sampling {
namespace {

using sampling_test::DefaultPrior;
using sampling_test::RandomConstraints;

TEST(McmcSamplerTest, SamplesValidAndUnweighted) {
  Rng rng(1);
  Vec hidden = {0.4, -0.6, 0.5, 0.2};
  auto prefs = RandomConstraints(30, hidden, rng);
  ConstraintChecker checker(prefs);
  prob::GaussianMixture prior = DefaultPrior(4, 2);
  McmcSampler sampler(&prior, &checker);
  SampleStats stats;
  auto samples = sampler.Draw(200, rng, &stats);
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_EQ(samples->size(), 200u);
  for (const auto& s : *samples) {
    EXPECT_TRUE(checker.IsValid(s.w));
    EXPECT_TRUE(InBox(s.w, -1.0, 1.0));
    EXPECT_DOUBLE_EQ(s.weight, 1.0);
  }
}

TEST(McmcSamplerTest, ScalesToHighDimensionality) {
  // The whole point of MCMC in the paper (Fig. 6 f-j): it works where the
  // importance sampler's grid is intractable.
  Rng rng(3);
  Vec hidden = rng.UniformVector(10, -1.0, 1.0);
  auto prefs = RandomConstraints(20, hidden, rng);
  ConstraintChecker checker(prefs);
  // In 10 dimensions a diffuse prior has negligible mass inside 20 random
  // half-spaces, so give the prior a component near the region (a stand-in
  // for a fitted long-run prior); the MH chain then explores it cheaply.
  std::vector<prob::Gaussian> comps;
  comps.push_back(
      std::move(prob::Gaussian::Spherical(Scale(hidden, 0.9), 0.3)).value());
  comps.push_back(
      std::move(prob::Gaussian::Spherical(Vec(10, 0.0), 0.6)).value());
  auto prior =
      std::move(prob::GaussianMixture::Uniform(std::move(comps))).value();
  McmcSampler sampler(&prior, &checker);
  auto samples = sampler.Draw(100, rng);
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_EQ(samples->size(), 100u);
  for (const auto& s : *samples) EXPECT_TRUE(checker.IsValid(s.w));
}

TEST(McmcSamplerTest, ZeroThinningIsInvalidArgument) {
  // Draw collects every `thinning`-th chain state; zero has no meaning and
  // must be refused up front, not reach the modulo.
  Rng rng(9);
  ConstraintChecker checker({});
  prob::GaussianMixture prior = DefaultPrior(2, 2);
  McmcSamplerOptions opts;
  opts.thinning = 0;
  McmcSampler sampler(&prior, &checker, opts);
  SampleStats stats;
  auto samples = sampler.Draw(10, rng, &stats);
  ASSERT_FALSE(samples.ok());
  EXPECT_EQ(samples.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(samples.status().message().find("thinning"), std::string::npos)
      << samples.status();
  EXPECT_EQ(stats.proposed, 0u);
}

TEST(McmcSamplerTest, ChainMovesAroundTheRegion) {
  Rng rng(5);
  ConstraintChecker checker({});
  prob::GaussianMixture prior = DefaultPrior(2, 6);
  McmcSamplerOptions opts;
  opts.thinning = 3;
  McmcSampler sampler(&prior, &checker, opts);
  auto samples = sampler.Draw(300, rng);
  ASSERT_TRUE(samples.ok());
  // Not all samples equal (the chain mixes), and consecutive kept samples
  // are not forced to be identical.
  std::size_t distinct_from_first = 0;
  for (const auto& s : *samples) {
    if (s.w != (*samples)[0].w) ++distinct_from_first;
  }
  EXPECT_GT(distinct_from_first, samples->size() / 2);
}

TEST(McmcSamplerTest, StationaryMassFollowsPrior) {
  // Unconstrained chain over a mixture with two separated modes: the visit
  // frequency near each mode should match the component weights (0.5/0.5
  // within tolerance).
  std::vector<prob::Gaussian> comps;
  comps.push_back(std::move(prob::Gaussian::Spherical({-0.25, -0.25}, 0.25))
                      .value());
  comps.push_back(
      std::move(prob::Gaussian::Spherical({0.25, 0.25}, 0.25)).value());
  auto prior =
      std::move(prob::GaussianMixture::Uniform(std::move(comps))).value();
  ConstraintChecker checker({});
  McmcSamplerOptions opts;
  opts.lmax = 1.0;  // Long steps so the chain can hop between modes.
  opts.thinning = 2;
  McmcSampler sampler(&prior, &checker, opts);
  Rng rng(7);
  auto samples = sampler.Draw(6000, rng);
  ASSERT_TRUE(samples.ok());
  std::size_t near_positive = 0;
  for (const auto& s : *samples) {
    if (s.w[0] + s.w[1] > 0.0) ++near_positive;
  }
  double frac = static_cast<double>(near_positive) / samples->size();
  EXPECT_NEAR(frac, 0.5, 0.15);
}

TEST(McmcSamplerTest, ContradictoryFeedbackFailsCleanly) {
  std::vector<pref::Preference> prefs(2);
  prefs[0].diff = {1.0, 0.0};   // w0 >= 0
  prefs[1].diff = {-1.0, 0.0};  // w0 <= 0 — measure-zero valid region.
  ConstraintChecker checker(prefs);
  prob::GaussianMixture prior = DefaultPrior(2, 8);
  McmcSamplerOptions opts;
  opts.base.max_attempts_per_sample = 2000;
  McmcSampler sampler(&prior, &checker, opts);
  Rng rng(9);
  auto result = sampler.Draw(10, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(McmcSamplerTest, ThinningReducesAutocorrelation) {
  Rng rng(10);
  Vec hidden = {0.5, 0.5};
  auto prefs = RandomConstraints(10, hidden, rng);
  ConstraintChecker checker(prefs);
  prob::GaussianMixture prior = DefaultPrior(2, 11);

  auto lag1_autocorr = [](const std::vector<WeightedSample>& s) {
    double mean = 0.0;
    for (const auto& x : s) mean += x.w[0];
    mean /= static_cast<double>(s.size());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      double d = s[i].w[0] - mean;
      den += d * d;
      if (i + 1 < s.size()) num += d * (s[i + 1].w[0] - mean);
    }
    return den > 0.0 ? num / den : 0.0;
  };

  McmcSamplerOptions dense;
  dense.thinning = 1;
  McmcSamplerOptions thin;
  thin.thinning = 10;
  Rng r1(12);
  Rng r2(12);
  auto s_dense = McmcSampler(&prior, &checker, dense).Draw(800, r1);
  auto s_thin = McmcSampler(&prior, &checker, thin).Draw(800, r2);
  ASSERT_TRUE(s_dense.ok());
  ASSERT_TRUE(s_thin.ok());
  EXPECT_LT(lag1_autocorr(*s_thin), lag1_autocorr(*s_dense));
}

}  // namespace
}  // namespace topkpkg::sampling
