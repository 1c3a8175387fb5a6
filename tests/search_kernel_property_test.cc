// Property tests for the allocation-free Top-k-Pkg search kernel: the
// arena/SearchScratch machinery over the shared aggregation kernel
// (model/aggregate_kernel.h) must stay bit-compatible with the exhaustive
// NaivePackageEnumerator oracle across profiles, weight signs, nulls and φ
// — including nulls on min-aggregated features with negative weight (the
// pre-kernel exactness gap, now asserted exact) and the zero-active-weight
// tie-break — and a SearchScratch reused across heterogeneous calls must
// leak no state between them. Large-k cases exercise the bounded-heap
// collector including ties at the k-th boundary.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/model/package.h"
#include "topkpkg/topk/naive_enumerator.h"
#include "topkpkg/topk/topk_pkg.h"

namespace topkpkg::topk {
namespace {

using model::ItemTable;
using model::Package;
using model::PackageEvaluator;
using model::Profile;

struct Workload {
  std::unique_ptr<ItemTable> table;
  std::unique_ptr<Profile> profile;
  std::unique_ptr<PackageEvaluator> evaluator;
};

Workload MakeWorkload(ItemTable table, const std::string& profile_spec,
                      std::size_t phi) {
  Workload w;
  w.table = std::make_unique<ItemTable>(std::move(table));
  w.profile = std::make_unique<Profile>(
      std::move(Profile::Parse(profile_spec)).value());
  w.evaluator =
      std::make_unique<PackageEvaluator>(w.table.get(), w.profile.get(), phi);
  return w;
}

// A random table over `spec`'s width with a per-value null probability.
ItemTable RandomTable(std::size_t n, std::size_t m, double null_prob,
                      Rng& rng) {
  std::vector<Vec> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vec row = rng.UniformVector(m, 0.0, 1.0);
    for (double& v : row) {
      if (rng.Bernoulli(null_prob)) v = model::kNullValue;
    }
    rows.push_back(std::move(row));
  }
  return std::move(ItemTable::Create(std::move(rows))).value();
}

// Weight vector with mixed signs and occasional exact zeros (a zero weight
// deactivates its feature, exercising the active-feature plan; the all-zero
// case — now oracle-identical too — has its own dedicated tests below).
Vec RandomWeights(std::size_t m, Rng& rng) {
  Vec w = rng.UniformVector(m, -1.0, 1.0);
  for (double& v : w) {
    if (rng.Bernoulli(0.2)) v = 0.0;
  }
  bool any = false;
  for (double v : w) any = any || v != 0.0;
  if (!any) w[m - 1] = 0.5;
  return w;
}

// Full-result bit-equivalence against the exhaustive oracle.
void ExpectMatchesOracle(const SearchResult& fast, const SearchResult& slow,
                         const std::string& label) {
  ASSERT_EQ(fast.packages.size(), slow.packages.size()) << label;
  for (std::size_t i = 0; i < slow.packages.size(); ++i) {
    EXPECT_EQ(fast.packages[i].package, slow.packages[i].package)
        << label << " rank=" << i;
    EXPECT_NEAR(fast.packages[i].utility, slow.packages[i].utility, 1e-9)
        << label << " rank=" << i;
  }
}

// ---- Oracle bit-equivalence sweep ----------------------------------------

// (seed, profile spec, phi). expand_on_ties makes the search exact for every
// profile including the plateau-tie-heavy min/max ones, so the full list —
// packages, utilities, tie-order, truncation flag — must match the oracle.
class KernelOracleEquivalence
    : public ::testing::TestWithParam<std::tuple<int, const char*, int>> {};

TEST_P(KernelOracleEquivalence, BitIdenticalToNaiveEnumerator) {
  auto [seed, spec, phi] = GetParam();
  auto profile = std::move(Profile::Parse(spec)).value();
  const std::size_t m = profile.num_features();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  const double null_prob = (seed % 3 == 0) ? 0.25 : 0.0;
  auto w = MakeWorkload(RandomTable(11, m, null_prob, rng), spec,
                        static_cast<std::size_t>(phi));
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  SearchScratch scratch;  // Shared across all trials of this case.
  SearchLimits exact;
  exact.expand_on_ties = true;
  for (int trial = 0; trial < 8; ++trial) {
    // Nulls × min-aggregate × negative weight included: the aggregation
    // kernel's null-aware bound (AggResolveBoundWeights) carries the
    // count-0 min contribution of exactly 0 explicitly, so the search is
    // exact here too — this sweep used to flip min-weights non-negative
    // under nulls to document the pre-kernel gap.
    Vec weights = RandomWeights(m, rng);
    const std::size_t k = 1 + static_cast<std::size_t>(rng.UniformInt(5));
    auto fast = search.Search(weights, k, exact, nullptr, &scratch);
    auto slow = oracle.Search(weights, k);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_FALSE(fast->truncated);
    ASSERT_EQ(fast->packages.size(), slow->packages.size())
        << "seed=" << seed << " spec=" << spec << " phi=" << phi
        << " trial=" << trial;
    for (std::size_t i = 0; i < slow->packages.size(); ++i) {
      EXPECT_EQ(fast->packages[i].package, slow->packages[i].package)
          << "seed=" << seed << " spec=" << spec << " phi=" << phi
          << " trial=" << trial << " rank=" << i;
      EXPECT_NEAR(fast->packages[i].utility, slow->packages[i].utility, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesTimesPhi, KernelOracleEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values("sum,avg", "max,min", "sum,max,min",
                                         "avg,min", "sum,sum,avg,max"),
                       ::testing::Values(1, 2, 3, 4)));

// ---- Null × min-aggregate × negative weight exactness --------------------

// The distilled shape of the pre-kernel gap: one min-aggregated feature with
// negative weight over a column holding a null. The all-null package {2}
// contributes 0 (count-0 min), which beats every real minimum under the
// negative weight — but the old τ-padded bound always folded a positive
// minimum, fell below η_lo immediately, and terminated before the null item
// was ever accessed, returning {0} instead. The null-aware bound must find
// {2}.
TEST(NullMinNegativeWeightTest, AllNullPackageIsTheTop1) {
  auto w = MakeWorkload(
      std::move(model::ItemTable::Create(
                    {{0.5}, {0.8}, {model::kNullValue}}))
          .value(),
      "min", 2);
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  const Vec weights = {-0.6};
  auto fast = search.Search(weights, 1);
  auto slow = oracle.Search(weights, 1);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->packages[0].package, Package::Of({2}));  // Oracle sanity.
  EXPECT_DOUBLE_EQ(slow->packages[0].utility, 0.0);
  ExpectMatchesOracle(*fast, *slow, "distilled null-min-negative");
}

// Randomized sweep with the gap's ingredients forced: min-heavy profiles,
// nulls present, and every min weight negative. Previously these were the
// documented-miss cases; now they must match the oracle exactly.
class NullMinNegativeWeightSweep
    : public ::testing::TestWithParam<std::tuple<int, const char*, int>> {};

TEST_P(NullMinNegativeWeightSweep, MatchesOracleExactly) {
  auto [seed, spec, phi] = GetParam();
  auto profile = std::move(Profile::Parse(spec)).value();
  const std::size_t m = profile.num_features();
  Rng rng(static_cast<uint64_t>(seed) * 6007 + 29);
  auto w = MakeWorkload(RandomTable(10, m, /*null_prob=*/0.3, rng), spec,
                        static_cast<std::size_t>(phi));
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  SearchScratch scratch;
  SearchLimits exact;
  exact.expand_on_ties = true;
  for (int trial = 0; trial < 6; ++trial) {
    Vec weights = RandomWeights(m, rng);
    for (std::size_t f = 0; f < m; ++f) {
      if (profile.op(f) == model::AggregateOp::kMin) {
        weights[f] = -std::max(0.05, std::abs(weights[f]));
      }
    }
    const std::size_t k = 1 + static_cast<std::size_t>(rng.UniformInt(5));
    auto fast = search.Search(weights, k, exact, nullptr, &scratch);
    auto slow = oracle.Search(weights, k);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok());
    EXPECT_FALSE(fast->truncated);
    ExpectMatchesOracle(
        *fast, *slow,
        std::string("spec=") + spec + " seed=" + std::to_string(seed) +
            " phi=" + std::to_string(phi) + " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MinProfilesUnderNulls, NullMinNegativeWeightSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values("min", "min,min", "sum,min",
                                         "min,avg,min"),
                       ::testing::Values(1, 2, 3)));

// ---- Zero-active-weight tie-break ----------------------------------------

// With no active feature every utility is 0 and the contract is the
// deterministic tie-break: the search must return the oracle's lexicographic
// item-id order over the whole package space (it used to return the first k
// singletons).
TEST(ZeroActiveWeightTest, MatchesOracleLexicographicTieBreak) {
  auto w = MakeWorkload(
      std::move(data::GenerateUniform(7, 2, 96)).value(), "sum,avg", 3);
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  const Vec zero = {0.0, 0.0};
  for (std::size_t k : {1u, 4u, 10u, 200u}) {
    auto fast = search.Search(zero, k);
    auto slow = oracle.Search(zero, k);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok());
    EXPECT_FALSE(fast->truncated);
    ExpectMatchesOracle(*fast, *slow, "zero-weight k=" + std::to_string(k));
  }
}

// Zero-weight features combined with null-profiled ones (both deactivate)
// and a package filter: the filtered lexicographic walk must agree with
// filtering the oracle's list.
TEST(ZeroActiveWeightTest, FilterAppliesOnTheTieBreakPath) {
  auto w = MakeWorkload(
      std::move(data::GenerateUniform(6, 2, 97)).value(), "sum,null", 3);
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  TopKPkgSearch::PackageFilter only_pairs = [](const Package& p) {
    return p.size() == 2;
  };
  const Vec zero = {0.0, 0.5};  // Weight on the null-profiled feature only.
  auto fast = search.Search(zero, 5, {}, &only_pairs);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto slow = oracle.Search(zero, 1000);
  ASSERT_TRUE(slow.ok());
  std::vector<ScoredPackage> expected;
  for (const auto& sp : slow->packages) {
    if (sp.package.size() == 2 && expected.size() < 5) expected.push_back(sp);
  }
  ASSERT_EQ(fast->packages.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fast->packages[i].package, expected[i].package) << "rank " << i;
    EXPECT_DOUBLE_EQ(fast->packages[i].utility, 0.0);
  }
}

// ---- Large-k collector ---------------------------------------------------

// k ≥ 1000 drives the bounded-heap collector deep into the regime the old
// insertion-sorted vector was quadratic in. Values are drawn from a coarse
// grid so utilities tie heavily — including at the k-th boundary, where the
// heap's displacement order must still reproduce the oracle's BetterThan
// tie-break exactly.
TEST(LargeKCollectorTest, ThousandsOfPackagesWithBoundaryTies) {
  Rng rng(4321);
  std::vector<Vec> rows;
  for (int i = 0; i < 15; ++i) {
    // 3 distinct values per feature → massive utility plateaus.
    rows.push_back(Vec{0.25 * (1 + rng.UniformInt(3)),
                       0.25 * (1 + rng.UniformInt(3))});
  }
  auto w = MakeWorkload(std::move(model::ItemTable::Create(rows)).value(),
                        "sum,min", 4);
  TopKPkgSearch search(w.evaluator.get());
  NaivePackageEnumerator oracle(w.evaluator.get());
  SearchScratch scratch;
  SearchLimits exact;
  exact.expand_on_ties = true;
  for (const Vec& weights :
       {Vec{0.7, 0.3}, Vec{0.4, -0.8}, Vec{-0.2, 0.9}}) {
    for (std::size_t k : {1000u, 1940u, 5000u}) {
      auto fast = search.Search(weights, k, exact, nullptr, &scratch);
      auto slow = oracle.Search(weights, k);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(slow.ok());
      EXPECT_FALSE(fast->truncated);
      // n=15, phi=4 → 1940 packages total; k beyond that returns them all.
      EXPECT_EQ(slow->packages.size(), std::min<std::size_t>(k, 1940));
      ExpectMatchesOracle(*fast, *slow, "large-k k=" + std::to_string(k));
    }
  }
}

// ---- Scratch-reuse regression --------------------------------------------

// Two SearchResults must agree exactly: same packages, bitwise-equal
// utilities, same truncation flag and work counters.
void ExpectSameResult(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.items_accessed, b.items_accessed);
  EXPECT_EQ(a.packages_generated, b.packages_generated);
  EXPECT_EQ(a.expansions, b.expansions);
  ASSERT_EQ(a.packages.size(), b.packages.size());
  for (std::size_t i = 0; i < a.packages.size(); ++i) {
    EXPECT_EQ(a.packages[i].package, b.packages[i].package) << "rank " << i;
    EXPECT_EQ(a.packages[i].utility, b.packages[i].utility) << "rank " << i;
  }
}

// One scratch serves interleaved searches over two evaluators of different
// dimensionality/φ, different weights, k, and limits — including truncating
// limits that exercise the max_queue overflow and max_expansions paths.
// Every call must match the same call against a fresh scratch.
TEST(SearchScratchReuseTest, HeterogeneousCallsLeakNoState) {
  auto small = MakeWorkload(
      std::move(data::GenerateUniform(10, 2, 91)).value(), "sum,avg", 3);
  auto large = MakeWorkload(
      std::move(data::GenerateAntiCorrelated(60, 4, 92)).value(),
      "sum,max,min,avg", 4);
  TopKPkgSearch small_search(small.evaluator.get());
  TopKPkgSearch large_search(large.evaluator.get());

  SearchLimits exact;
  SearchLimits ties;
  ties.expand_on_ties = true;
  SearchLimits tiny_expansions;
  tiny_expansions.max_expansions = 20;
  SearchLimits tiny_queue;
  tiny_queue.max_queue = 3;
  SearchLimits tiny_access;
  tiny_access.max_items_accessed = 7;

  struct Call {
    const TopKPkgSearch* search;
    std::size_t m;
    std::size_t k;
    const SearchLimits* limits;
  };
  const std::vector<Call> calls = {
      {&small_search, 2, 2, &exact},   {&large_search, 4, 5, &tiny_queue},
      {&small_search, 2, 4, &ties},    {&large_search, 4, 1, &tiny_expansions},
      {&large_search, 4, 3, &exact},   {&small_search, 2, 1, &tiny_access},
      {&large_search, 4, 2, &ties},    {&small_search, 2, 3, &tiny_queue},
  };

  Rng rng(4242);
  SearchScratch shared;
  for (int round = 0; round < 3; ++round) {
    for (const Call& call : calls) {
      const Vec weights = RandomWeights(call.m, rng);
      auto reused =
          call.search->Search(weights, call.k, *call.limits, nullptr, &shared);
      SearchScratch fresh;
      auto clean =
          call.search->Search(weights, call.k, *call.limits, nullptr, &fresh);
      ASSERT_TRUE(reused.ok()) << reused.status();
      ASSERT_TRUE(clean.ok()) << clean.status();
      ExpectSameResult(*reused, *clean);
    }
  }
}

// The thread_local default scratch must behave exactly like an explicit one.
TEST(SearchScratchReuseTest, DefaultThreadLocalScratchMatchesExplicit) {
  auto w = MakeWorkload(
      std::move(data::GenerateUniform(30, 3, 93)).value(), "sum,avg,min", 3);
  TopKPkgSearch search(w.evaluator.get());
  Rng rng(777);
  for (int trial = 0; trial < 5; ++trial) {
    const Vec weights = RandomWeights(3, rng);
    auto via_tls = search.Search(weights, 4);
    SearchScratch fresh;
    auto via_fresh = search.Search(weights, 4, {}, nullptr, &fresh);
    ASSERT_TRUE(via_tls.ok());
    ASSERT_TRUE(via_fresh.ok());
    ExpectSameResult(*via_tls, *via_fresh);
  }
}

// Filters still apply under the skip-before-materialize collector: the
// filtered search through a reused scratch matches a fresh-scratch run and
// never returns a non-passing package.
TEST(SearchScratchReuseTest, FilterWithReusedScratch) {
  auto w = MakeWorkload(
      std::move(data::GenerateUniform(12, 2, 94)).value(), "sum,avg", 3);
  TopKPkgSearch search(w.evaluator.get());
  TopKPkgSearch::PackageFilter only_pairs = [](const Package& p) {
    return p.size() == 2;
  };
  Rng rng(555);
  SearchScratch shared;
  for (int trial = 0; trial < 5; ++trial) {
    const Vec weights = RandomWeights(2, rng);
    auto filtered = search.Search(weights, 3, {}, &only_pairs, &shared);
    SearchScratch fresh;
    auto clean = search.Search(weights, 3, {}, &only_pairs, &fresh);
    ASSERT_TRUE(filtered.ok());
    ASSERT_TRUE(clean.ok());
    ExpectSameResult(*filtered, *clean);
    for (const auto& sp : filtered->packages) {
      EXPECT_EQ(sp.package.size(), 2u);
    }
  }
}

// A PackageFilter that itself searches with the default scratch must not
// corrupt the outer call's live arena: Search() and SearchBatch() share one
// scratch type and one thread_local, so the nested call detects the busy
// scratch and falls back to a private one. Every nesting of the two entry
// points must equal the same outer call on a fresh scratch.
TEST(SearchScratchReuseTest, ReentrantSearchThroughFilterIsSafe) {
  auto w = MakeWorkload(
      std::move(data::GenerateUniform(15, 2, 95)).value(), "sum,avg", 3);
  TopKPkgSearch search(w.evaluator.get());
  // Two same-signature inner vectors, so a nested SearchBatch runs a
  // many-lane walk.
  const Vec inner_w = {0.3, 0.4};
  const Vec inner_w2 = {0.6, 0.2};
  enum class Entry { kSearch, kSearchBatch };
  // Keep packages whose items all appear in the nested search's top lists —
  // contrived, but it exercises a full walk inside the expansion loop.
  auto nested_filter = [&](Entry inner) -> TopKPkgSearch::PackageFilter {
    return [&, inner](const Package& p) {
      std::vector<SearchResult> tops;
      if (inner == Entry::kSearch) {
        auto r = search.Search(inner_w, 6);
        if (!r.ok()) return false;
        tops.push_back(std::move(*r));
      } else {
        auto r = search.SearchBatch({&inner_w, &inner_w2}, 6);
        if (!r.ok()) return false;
        tops = std::move(*r);
      }
      for (model::ItemId id : p.items()) {
        bool found = false;
        for (const SearchResult& top : tops) {
          for (const auto& sp : top.packages) {
            if (sp.package.Contains(id)) found = true;
          }
        }
        if (!found) return false;
      }
      return true;
    };
  };
  // Runs the outer call on `scratch` (null = the thread_local default).
  auto run = [&](Entry outer, const std::vector<Vec>& pool,
                 const TopKPkgSearch::PackageFilter& filter,
                 SearchScratch* scratch) {
    std::vector<SearchResult> out;
    if (outer == Entry::kSearch) {
      auto r = search.Search(pool[0], 3, {}, &filter, scratch);
      EXPECT_TRUE(r.ok()) << r.status();
      if (r.ok()) out.push_back(std::move(*r));
    } else {
      std::vector<const Vec*> ptrs;
      for (const Vec& v : pool) ptrs.push_back(&v);
      auto r = search.SearchBatch(ptrs, 3, {}, &filter, scratch);
      EXPECT_TRUE(r.ok()) << r.status();
      if (r.ok()) out = std::move(*r);
    }
    return out;
  };

  const std::pair<Entry, Entry> nestings[] = {
      {Entry::kSearch, Entry::kSearch},
      {Entry::kSearchBatch, Entry::kSearch},
      {Entry::kSearch, Entry::kSearchBatch},
      {Entry::kSearchBatch, Entry::kSearchBatch},
  };
  Rng rng(909);
  for (const auto& [outer, inner] : nestings) {
    const TopKPkgSearch::PackageFilter filter = nested_filter(inner);
    for (int trial = 0; trial < 3; ++trial) {
      const Vec weights = RandomWeights(2, rng);
      Vec scaled = weights;
      for (double& v : scaled) v *= 0.5;  // Same signature: shared walk.
      const std::vector<Vec> pool = {weights, scaled, RandomWeights(2, rng)};
      const std::vector<SearchResult> reentrant =
          run(outer, pool, filter, nullptr);
      SearchScratch outer_fresh;
      const std::vector<SearchResult> isolated =
          run(outer, pool, filter, &outer_fresh);
      ASSERT_EQ(reentrant.size(), isolated.size());
      for (std::size_t j = 0; j < reentrant.size(); ++j) {
        ExpectSameResult(reentrant[j], isolated[j]);
      }
    }
  }
}

}  // namespace
}  // namespace topkpkg::topk
