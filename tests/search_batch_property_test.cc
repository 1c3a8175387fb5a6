// Property tests for TopKPkgSearch::SearchBatch: one shared branch-and-bound
// walk scoring a whole pool of weight vectors (the many-lane walk) must be
// bit-identical *per sample* to Search (the one-lane walk) — packages,
// utilities, tie order, truncation flag, and every work counter
// (items_accessed, packages_generated, expansions) — across profiles ×
// signs × nulls × filters × truncating limits × batch widths, including
// widths above kMaxBatchLanes (internal chunking) and mixed-signature pools
// (internal grouping). A SearchScratch reused across heterogeneous batched
// calls must leak no state, and the ranker's batched ComputeSampleLists
// must reproduce a ranking aggregated from per-sample Search results.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/model/package.h"
#include "topkpkg/ranking/rankers.h"
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

// Mixed signs with occasional exact zeros — zeros deactivate features, so a
// pool drawn this way spans several access signatures and exercises
// SearchBatch's internal grouping as well as its shared walks.
Vec RandomWeights(std::size_t m, Rng& rng) {
  Vec w = rng.UniformVector(m, -1.0, 1.0);
  for (double& v : w) {
    if (rng.Bernoulli(0.2)) v = 0.0;
  }
  return w;
}

// A pool of `width` weight vectors sharing one sign pattern (one access
// signature): the regime where the whole pool rides a single shared walk.
std::vector<Vec> SignCoherentPool(std::size_t m, std::size_t width, Rng& rng) {
  Vec signs = rng.UniformVector(m, -1.0, 1.0);
  std::vector<Vec> pool;
  pool.reserve(width);
  for (std::size_t j = 0; j < width; ++j) {
    Vec w(m);
    for (std::size_t f = 0; f < m; ++f) {
      double mag = 0.05 + 0.95 * rng.Uniform();
      w[f] = signs[f] < 0.0 ? -mag : mag;
    }
    pool.push_back(std::move(w));
  }
  return pool;
}

// Full bit-equivalence: same packages, bitwise-equal utilities, same
// truncation flag and work counters.
void ExpectSameResult(const SearchResult& batch, const SearchResult& scalar,
                      const std::string& label) {
  EXPECT_EQ(batch.truncated, scalar.truncated) << label;
  EXPECT_EQ(batch.items_accessed, scalar.items_accessed) << label;
  EXPECT_EQ(batch.packages_generated, scalar.packages_generated) << label;
  EXPECT_EQ(batch.expansions, scalar.expansions) << label;
  ASSERT_EQ(batch.packages.size(), scalar.packages.size()) << label;
  for (std::size_t i = 0; i < batch.packages.size(); ++i) {
    EXPECT_EQ(batch.packages[i].package, scalar.packages[i].package)
        << label << " rank=" << i;
    EXPECT_EQ(batch.packages[i].utility, scalar.packages[i].utility)
        << label << " rank=" << i;
  }
}

void ExpectBatchMatchesScalar(const TopKPkgSearch& search,
                              const std::vector<Vec>& pool, std::size_t k,
                              const SearchLimits& limits,
                              const TopKPkgSearch::PackageFilter* filter,
                              const std::string& label) {
  std::vector<const Vec*> ptrs;
  ptrs.reserve(pool.size());
  for (const Vec& w : pool) ptrs.push_back(&w);
  auto batch = search.SearchBatch(ptrs, k, limits, filter);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status();
  ASSERT_EQ(batch->size(), pool.size()) << label;
  for (std::size_t j = 0; j < pool.size(); ++j) {
    SearchScratch fresh;
    auto scalar = search.Search(pool[j], k, limits, filter, &fresh);
    ASSERT_TRUE(scalar.ok()) << label << ": " << scalar.status();
    ExpectSameResult((*batch)[j], *scalar,
                     label + " lane=" + std::to_string(j));
  }
}

// ---- Per-sample bit-equivalence sweep ------------------------------------
//
// (seed, profile spec, batch width) × {exact, tie-expanding, and each
// truncating limit} × {null-free, nullable} tables. Widths 1, 2, 7 exercise
// partial masks; 64 fills a whole mask word.
class BatchEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, const char*, int>> {};

TEST_P(BatchEquivalenceSweep, EveryLaneMatchesItsScalarSearch) {
  auto [seed, spec, width] = GetParam();
  auto profile = std::move(Profile::Parse(spec)).value();
  const std::size_t m = profile.num_features();
  Rng rng(static_cast<uint64_t>(seed) * 104729 + 7 * width);
  const double null_prob = (seed % 2 == 0) ? 0.25 : 0.0;
  auto w = MakeWorkload(RandomTable(12, m, null_prob, rng), spec, 3);
  TopKPkgSearch search(w.evaluator.get());

  SearchLimits exact;
  SearchLimits ties;
  ties.expand_on_ties = true;
  SearchLimits tiny_expansions;
  tiny_expansions.max_expansions = 20;
  SearchLimits tiny_queue;
  tiny_queue.max_queue = 3;
  SearchLimits tiny_access;
  tiny_access.max_items_accessed = 7;
  const std::vector<std::pair<const char*, const SearchLimits*>> limit_set = {
      {"exact", &exact},
      {"ties", &ties},
      {"tiny_expansions", &tiny_expansions},
      {"tiny_queue", &tiny_queue},
      {"tiny_access", &tiny_access},
  };

  for (const auto& [limit_name, limits] : limit_set) {
    std::vector<Vec> pool = SignCoherentPool(
        m, static_cast<std::size_t>(width), rng);
    const std::size_t k = 1 + static_cast<std::size_t>(rng.UniformInt(5));
    ExpectBatchMatchesScalar(
        search, pool, k, *limits, nullptr,
        std::string("spec=") + spec + " width=" + std::to_string(width) +
            " limits=" + limit_name + " nulls=" + std::to_string(null_prob));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesTimesWidths, BatchEquivalenceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values("sum,avg", "max,min", "sum,max,min",
                                         "avg,min", "min,avg,min"),
                       ::testing::Values(1, 2, 7, 64)));

// ---- Mixed signatures, duplicates, and zero-weight lanes -----------------

// A pool mixing sign patterns, exact duplicates, all-zero vectors (the
// lexicographic tie-break path runs scalar per lane), and NaN weights must
// still be per-lane identical: SearchBatch groups by access signature
// internally and shares a walk only within a group.
TEST(BatchHeterogeneousPoolTest, MixedSignaturesDuplicatesAndZeroLanes) {
  Rng rng(2026);
  auto w = MakeWorkload(RandomTable(12, 3, 0.2, rng), "sum,min,avg", 3);
  TopKPkgSearch search(w.evaluator.get());
  std::vector<Vec> pool = {
      {0.8, 0.2, 0.5},   {0.6, 0.9, 0.1},  // Same signature (+,+,+).
      {0.8, 0.2, 0.5},                     // Exact duplicate of lane 0.
      {-0.4, 0.7, 0.3},  {0.5, -0.6, 0.2},  // Two more signatures.
      {0.0, 0.0, 0.0},                      // Zero-active: tie-break walk.
      {0.3, 0.0, -0.9},                     // Deactivated middle feature.
      {-0.1, -0.2, -0.3},                   // All-negative.
  };
  SearchLimits ties;
  ties.expand_on_ties = true;
  for (const SearchLimits& limits : {SearchLimits{}, ties}) {
    ExpectBatchMatchesScalar(search, pool, 4, limits, nullptr,
                             "heterogeneous-pool");
  }
}

// Filters apply inside the shared walk exactly as in the scalar one.
TEST(BatchHeterogeneousPoolTest, FilterMatchesScalarPerLane) {
  Rng rng(31);
  auto w = MakeWorkload(RandomTable(11, 2, 0.0, rng), "sum,avg", 3);
  TopKPkgSearch search(w.evaluator.get());
  TopKPkgSearch::PackageFilter only_pairs = [](const Package& p) {
    return p.size() == 2;
  };
  std::vector<Vec> pool;
  for (int j = 0; j < 9; ++j) pool.push_back(RandomWeights(2, rng));
  ExpectBatchMatchesScalar(search, pool, 3, {}, &only_pairs, "filtered");
}

// Widths beyond kMaxBatchLanes are chunked internally; the seam must not
// change any lane's result.
TEST(BatchHeterogeneousPoolTest, WidthAboveMaxLanesIsChunked) {
  Rng rng(97);
  auto w = MakeWorkload(RandomTable(10, 2, 0.15, rng), "sum,min", 3);
  TopKPkgSearch search(w.evaluator.get());
  std::vector<Vec> pool = SignCoherentPool(2, kMaxBatchLanes + 7, rng);
  ExpectBatchMatchesScalar(search, pool, 3, {}, nullptr, "chunked");
}

// ---- SIMD suite sweep ------------------------------------------------------
//
// The dispatched kernel suite (AVX2, SSE2 or scalar lanes, whichever the CPU
// runs) must keep SearchBatch per-lane bit-identical to Search — packages,
// utilities, truncation, and all work counters. Widths: 64 fills a whole
// mask word (full-mask fast paths + vector bodies), 7 and 37 keep partial
// masks and vector tails in play, and the tiny_access/tiny_queue limits
// retire lanes early so the gather kernels see thinned masks. simd_test
// checks every compiled suite against the reference kernels directly.
class SimdCompactionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimdCompactionSweep, EveryWidthAndLimitMatchesScalarSearch) {
  const int width = GetParam();
  Rng rng(4242 + width);
  auto w = MakeWorkload(RandomTable(12, 3, 0.2, rng), "sum,avg,min", 3);
  TopKPkgSearch search(w.evaluator.get());

  SearchLimits exact;
  SearchLimits tiny_access;
  tiny_access.max_items_accessed = 7;
  SearchLimits tiny_queue;
  tiny_queue.max_queue = 3;
  const std::vector<std::pair<const char*, const SearchLimits*>> limit_set = {
      {"exact", &exact},
      {"tiny_access", &tiny_access},
      {"tiny_queue", &tiny_queue},
  };

  for (const auto& [limit_name, limits] : limit_set) {
    std::vector<Vec> pool =
        SignCoherentPool(3, static_cast<std::size_t>(width), rng);
    ExpectBatchMatchesScalar(search, pool, 4, *limits, nullptr,
                             "width=" + std::to_string(width) +
                                 " limits=" + limit_name);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimdCompactionSweep,
                         ::testing::Values(7, 37, 64));

// ---- Batched scratch reuse -----------------------------------------------

// One explicit SearchScratch serves interleaved calls over two evaluators of
// different dimensionality, width, k, and limits; every call must match the
// same call against a fresh scratch.
TEST(BatchScratchReuseTest, HeterogeneousCallsLeakNoState) {
  auto small = MakeWorkload(
      std::move(data::GenerateUniform(10, 2, 91)).value(), "sum,avg", 3);
  auto large = MakeWorkload(
      std::move(data::GenerateAntiCorrelated(40, 4, 92)).value(),
      "sum,max,min,avg", 4);
  TopKPkgSearch small_search(small.evaluator.get());
  TopKPkgSearch large_search(large.evaluator.get());

  SearchLimits exact;
  SearchLimits tiny_queue;
  tiny_queue.max_queue = 3;

  struct Call {
    const TopKPkgSearch* search;
    std::size_t m;
    std::size_t width;
    std::size_t k;
    const SearchLimits* limits;
  };
  const std::vector<Call> calls = {
      {&small_search, 2, 5, 2, &exact},
      {&large_search, 4, 3, 4, &tiny_queue},
      {&small_search, 2, 8, 3, &tiny_queue},
      {&large_search, 4, 6, 1, &exact},
  };

  Rng rng(616);
  SearchScratch shared;
  for (int round = 0; round < 3; ++round) {
    for (const Call& call : calls) {
      std::vector<Vec> pool;
      for (std::size_t j = 0; j < call.width; ++j) {
        pool.push_back(RandomWeights(call.m, rng));
      }
      std::vector<const Vec*> ptrs;
      for (const Vec& v : pool) ptrs.push_back(&v);
      auto reused = call.search->SearchBatch(ptrs, call.k, *call.limits,
                                             nullptr, &shared);
      SearchScratch fresh;
      auto clean = call.search->SearchBatch(ptrs, call.k, *call.limits,
                                            nullptr, &fresh);
      ASSERT_TRUE(reused.ok()) << reused.status();
      ASSERT_TRUE(clean.ok()) << clean.status();
      ASSERT_EQ(reused->size(), clean->size());
      for (std::size_t j = 0; j < reused->size(); ++j) {
        ExpectSameResult((*reused)[j], (*clean)[j],
                         "round=" + std::to_string(round) +
                             " lane=" + std::to_string(j));
      }
    }
  }
}

// ---- Ranker-level equivalence ---------------------------------------------

// The batched ComputeSampleLists path (signature-sorted chunks through
// SearchBatch) must produce exactly the ranking aggregated from per-sample
// Search() lists — per-sample lists are bit-identical, so aggregation is
// too — for every semantics and for duplicate-heavy pools (the MCMC shape
// the unique-weight memo serves).
TEST(RankerBatchedEquivalenceTest, BatchedRankingMatchesScalarExactly) {
  Rng rng(1234);
  auto w = MakeWorkload(RandomTable(14, 3, 0.2, rng), "sum,avg,min", 3);
  ranking::PackageRanker ranker(w.evaluator.get());
  TopKPkgSearch search(w.evaluator.get());

  // More unique weight vectors than one SearchBatch chunk takes, so the
  // ranker's per-chunk reassembly is checked too.
  std::vector<sampling::WeightedSample> samples;
  for (std::size_t i = 0; i < kMaxBatchLanes + 26; ++i) {
    sampling::WeightedSample s;
    s.w = RandomWeights(3, rng);
    s.weight = 0.5 + rng.Uniform();
    s.id = static_cast<sampling::SampleId>(i);
    samples.push_back(std::move(s));
    if (i % 3 == 0) {  // Metropolis-rejection shape: exact repeats.
      sampling::WeightedSample dup = samples.back();
      dup.id = static_cast<sampling::SampleId>(1000 + i);
      samples.push_back(std::move(dup));
    }
  }
  // The memo keys on the weight vector's bit pattern.
  std::set<std::string> distinct;
  for (const auto& s : samples) {
    distinct.emplace(reinterpret_cast<const char*>(s.w.data()),
                     s.w.size() * sizeof(double));
  }

  for (auto semantics : {ranking::Semantics::kExp, ranking::Semantics::kTkp,
                         ranking::Semantics::kMpo}) {
    ranking::RankingOptions opts;
    opts.k = 4;
    opts.sigma = 3;

    // Reference: one Search() per sample, aggregated directly.
    std::vector<ranking::SampleTopList> reference;
    for (const auto& s : samples) {
      auto r = search.Search(s.w, std::max(opts.k, opts.sigma), opts.limits);
      ASSERT_TRUE(r.ok()) << r.status();
      ranking::SampleTopList list;
      list.packages = std::move(r->packages);
      list.truncated = r->truncated;
      reference.push_back(std::move(list));
    }
    std::vector<const ranking::SampleTopList*> reference_ptrs;
    for (const auto& list : reference) reference_ptrs.push_back(&list);
    const ranking::RankingResult scalar =
        ranker.Aggregate(samples, reference_ptrs, semantics, opts);

    ranking::SearchDedupStats batch_dedup;
    auto batched = ranker.Rank(samples, semantics, opts, &batch_dedup);
    ASSERT_TRUE(batched.ok()) << batched.status();

    EXPECT_EQ(batch_dedup.unique_searches, distinct.size());
    EXPECT_GT(batch_dedup.dedup_hits, 0u);  // The dup lanes above.
    EXPECT_EQ(batched->any_truncated, scalar.any_truncated);
    ASSERT_EQ(batched->packages.size(), scalar.packages.size())
        << ranking::SemanticsName(semantics);
    for (std::size_t i = 0; i < scalar.packages.size(); ++i) {
      EXPECT_EQ(batched->packages[i].package, scalar.packages[i].package)
          << ranking::SemanticsName(semantics) << " rank=" << i;
      EXPECT_EQ(batched->packages[i].score, scalar.packages[i].score)
          << ranking::SemanticsName(semantics) << " rank=" << i;
    }
  }
}

}  // namespace
}  // namespace topkpkg::topk
