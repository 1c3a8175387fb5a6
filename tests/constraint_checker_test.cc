#include "topkpkg/sampling/constraint_checker.h"

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/model/item_table.h"
#include "topkpkg/topk/topk_pkg.h"

namespace topkpkg::sampling {
namespace {

Vec V(double a, double b) { return Vec{a, b}; }

TEST(ConstraintCheckerTest, ValidityAndViolationCounts) {
  std::vector<pref::Preference> prefs = {
      pref::Preference::FromVectors(V(1, 0), V(0, 1)),   // w0 >= w1
      pref::Preference::FromVectors(V(0.5, 0), V(0, 0)),  // w0 >= 0
  };
  ConstraintChecker checker(prefs);
  EXPECT_EQ(checker.num_constraints(), 2u);
  EXPECT_TRUE(checker.IsValid({0.5, 0.1}));
  EXPECT_FALSE(checker.IsValid({0.1, 0.5}));
  EXPECT_EQ(checker.Violations({-0.5, 0.5}), 2u);
  EXPECT_EQ(checker.Violations({0.5, 0.1}), 0u);
}

TEST(ConstraintCheckerTest, IsValidShortCircuits) {
  std::vector<pref::Preference> prefs;
  for (int i = 0; i < 10; ++i) {
    prefs.push_back(pref::Preference::FromVectors(V(0, 0), V(1, 0)));
  }
  ConstraintChecker checker(prefs);
  std::size_t checks = 0;
  EXPECT_FALSE(checker.IsValid({1.0, 0.0}, &checks));
  EXPECT_EQ(checks, 1u);  // First constraint already fails.
  checks = 0;
  EXPECT_EQ(checker.Violations({1.0, 0.0}, &checks), 10u);
  EXPECT_EQ(checks, 10u);  // Violations never short-circuits.
}

TEST(ConstraintCheckerTest, FromReducedAcceptsSameRegionAsFromAll) {
  pref::PreferenceSet set;
  ASSERT_TRUE(set.Add(V(3, 0), V(2, 0), "a", "b").ok());
  ASSERT_TRUE(set.Add(V(2, 0), V(1, 0), "b", "c").ok());
  ASSERT_TRUE(set.Add(V(3, 0), V(1, 0), "a", "c").ok());
  ConstraintChecker all = ConstraintChecker::FromAll(set);
  ConstraintChecker reduced = ConstraintChecker::FromReduced(set);
  EXPECT_EQ(all.num_constraints(), 3u);
  EXPECT_EQ(reduced.num_constraints(), 2u);
  for (double x = -1.0; x <= 1.0; x += 0.25) {
    for (double y = -1.0; y <= 1.0; y += 0.25) {
      EXPECT_EQ(all.IsValid({x, y}), reduced.IsValid({x, y}));
    }
  }
}

TEST(ConstraintCheckerTest, EmptyCheckerAcceptsEverything) {
  ConstraintChecker checker({});
  EXPECT_TRUE(checker.IsValid({0.3, -0.9}));
  EXPECT_EQ(checker.Violations({0.3, -0.9}), 0u);
}

TEST(ConstraintCheckerTest, IsValidBatchAgreesWithIsValid) {
  Rng rng(17);
  const std::size_t dim = 4;
  const Vec hidden = {0.6, -0.3, 0.2, 0.1};
  // Constraints oriented by a hidden weight vector (all jointly satisfiable
  // near `hidden`), as the samplers produce them.
  std::vector<pref::Preference> prefs;
  while (prefs.size() < 12) {
    Vec a = rng.UniformVector(dim, 0.0, 1.0);
    Vec b = rng.UniformVector(dim, 0.0, 1.0);
    if (Dot(a, hidden) == Dot(b, hidden)) continue;
    prefs.push_back(Dot(a, hidden) > Dot(b, hidden)
                        ? pref::Preference::FromVectors(a, b)
                        : pref::Preference::FromVectors(b, a));
  }
  ConstraintChecker checker(prefs);
  // A mixed batch: random vectors (mostly violating something) plus
  // perturbations of `hidden` (mostly valid).
  std::vector<WeightedSample> samples;
  for (int i = 0; i < 150; ++i) {
    samples.push_back(WeightedSample{rng.UniformVector(dim, -1.0, 1.0), 1.0});
  }
  for (int i = 0; i < 50; ++i) {
    Vec w = hidden;
    for (double& x : w) x += rng.Gaussian(0.0, 0.02);
    samples.push_back(WeightedSample{std::move(w), 1.0});
  }
  WeightBatch batch = WeightBatch::FromSamples(samples);
  ASSERT_EQ(batch.size(), samples.size());
  ASSERT_EQ(batch.dim(), dim);

  std::size_t batch_checks = 0;
  std::vector<std::uint8_t> valid = checker.IsValidBatch(batch, &batch_checks);
  ASSERT_EQ(valid.size(), samples.size());
  std::size_t scalar_checks = 0;
  std::size_t num_valid = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool expect = checker.IsValid(samples[i].w, &scalar_checks);
    EXPECT_EQ(valid[i] != 0, expect) << "sample " << i;
    if (expect) ++num_valid;
  }
  // Sanity: the workload actually mixes verdicts, and the active-set scan
  // paid exactly the short-circuit cost of the per-sample path.
  EXPECT_GT(num_valid, 0u);
  EXPECT_LT(num_valid, samples.size());
  EXPECT_EQ(batch_checks, scalar_checks);
}

TEST(ConstraintCheckerTest, IsValidBatchHandlesEmptyInputs) {
  ConstraintChecker empty_checker({});
  std::vector<WeightedSample> samples = {{{0.1, 0.2}, 1.0}, {{0.3, 0.4}, 1.0}};
  WeightBatch batch = WeightBatch::FromSamples(samples);
  std::vector<std::uint8_t> valid = empty_checker.IsValidBatch(batch);
  EXPECT_EQ(valid, (std::vector<std::uint8_t>{1, 1}));

  pref::Preference p;
  p.diff = {1.0, 0.0};
  ConstraintChecker checker({p});
  EXPECT_TRUE(checker.IsValidBatch(WeightBatch()).empty());
}

// ---- Aggregate-threshold package constraints -----------------------------

// Items: {cost, rating}; item 2 has a null rating (skipped by folds, but it
// still counts toward the package size that `avg` divides by).
model::ItemTable ThresholdTable() {
  return std::move(model::ItemTable::Create({{10.0, 4.0},
                                             {20.0, 2.0},
                                             {5.0, model::kNullValue}}))
      .value();
}

TEST(PackageConstraintCheckerTest, ThresholdsUseKernelAggregateRules) {
  model::ItemTable table = ThresholdTable();
  AggregateThreshold budget;  // sum(cost) <= 25
  budget.feature = 0;
  budget.op = model::AggregateOp::kSum;
  budget.upper = 25.0;
  AggregateThreshold quality;  // min(rating) >= 3
  quality.feature = 1;
  quality.op = model::AggregateOp::kMin;
  quality.lower = 3.0;
  PackageConstraintChecker checker(&table, {budget, quality});
  EXPECT_EQ(checker.num_thresholds(), 2u);

  EXPECT_TRUE(checker.IsValid(model::Package::Of({0})));
  EXPECT_FALSE(checker.IsValid(model::Package::Of({1})));      // rating 2 < 3
  EXPECT_FALSE(checker.IsValid(model::Package::Of({0, 1})));   // cost 30 > 25
  // {0, 2}: cost 15; the null rating is skipped, min = 4.0 >= 3.
  EXPECT_TRUE(checker.IsValid(model::Package::Of({0, 2})));
  // {2}: no non-null rating — the kernel's count-0 rule makes min 0 < 3.
  EXPECT_FALSE(checker.IsValid(model::Package::Of({2})));
}

TEST(PackageConstraintCheckerTest, RawAggregateMatchesAggregateState) {
  // The checker's folds are the same kernel AggregateState runs on, so raw
  // aggregates must agree with a state fold over every op — including avg
  // dividing by the full package size despite the null entry.
  model::ItemTable table = ThresholdTable();
  auto profile = std::move(model::Profile::Parse("sum,avg")).value();
  model::PackageEvaluator ev(&table, &profile, 3);
  model::Package p = model::Package::Of({0, 1, 2});
  model::AggregateState state = ev.NewState();
  for (model::ItemId id : p.items()) state.Add(table.Row(id));

  AggregateThreshold sum_cost{0, model::AggregateOp::kSum, 0.0, 100.0};
  AggregateThreshold avg_rating{1, model::AggregateOp::kAvg, 0.0, 100.0};
  PackageConstraintChecker checker(&table, {sum_cost, avg_rating});
  EXPECT_DOUBLE_EQ(checker.RawAggregate(p, sum_cost), 35.0);
  EXPECT_DOUBLE_EQ(checker.RawAggregate(p, avg_rating), 2.0);  // 6.0 / 3
  EXPECT_DOUBLE_EQ(checker.RawAggregate(p, sum_cost),
                   state.sum(0));
  EXPECT_DOUBLE_EQ(checker.RawAggregate(p, avg_rating),
                   state.sum(1) / static_cast<double>(state.size()));
}

TEST(PackageConstraintCheckerTest, AsFilterRestrictsTheSearch) {
  // The AsFilter adapter pushes the threshold conjunction into the Top-k-Pkg
  // search as a Sec. 7 schema predicate.
  model::ItemTable table = ThresholdTable();
  auto profile = std::move(model::Profile::Parse("sum,avg")).value();
  model::PackageEvaluator ev(&table, &profile, 2);
  topk::TopKPkgSearch search(&ev);
  AggregateThreshold budget;
  budget.feature = 0;
  budget.op = model::AggregateOp::kSum;
  budget.upper = 16.0;
  PackageConstraintChecker checker(&table, {budget});
  topk::TopKPkgSearch::PackageFilter filter = checker.AsFilter();
  auto r = search.Search({0.9, 0.3}, 10, {}, &filter);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->packages.empty());
  for (const auto& sp : r->packages) {
    EXPECT_TRUE(checker.IsValid(sp.package)) << sp.package.Key();
    EXPECT_LE(checker.RawAggregate(sp.package, budget), 16.0);
  }
  // Affordable: {0}, {2}, {0,2} (15), {1} is out (20), {0,1}, {1,2} are out.
  EXPECT_EQ(r->packages.size(), 3u);
}

}  // namespace
}  // namespace topkpkg::sampling
