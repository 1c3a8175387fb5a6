// Frozen golden corpus for the Top-k-Pkg search. Every case runs one pool of
// weight vectors through SearchBatch and through per-lane Search, and folds
// each lane's full result — packages, utility bit patterns, truncation flag,
// items_accessed, packages_generated and expansions — into one 64-bit
// FNV-1a digest. Both must equal the committed digest in
// search_golden_digests.inc, so any change to either entry point that moves
// a result bit, a tie order or a work counter fails here with the case label
// and the full result printed.
//
// The inputs are the search_batch_property_test sweeps: BatchEquivalenceSweep
// (seeds × profiles × widths {1, 2, 7, 64} × limits × nulls), the
// SimdCompactionSweep pools, the heterogeneous pool (zero, NaN and duplicate
// lanes), the filtered pool, and the chunked pool wider than kMaxBatchLanes.
//
// Regenerate the digest file (only for an intended result change) with
//   TOPKPKG_GOLDEN_DUMP=1 ./search_golden_test --gtest_filter='*Corpus*'
// and paste the printed lines into tests/search_golden_digests.inc.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/model/package.h"
#include "topkpkg/topk/topk_pkg.h"

namespace topkpkg::topk {
namespace {

using model::ItemTable;
using model::Package;
using model::PackageEvaluator;
using model::Profile;

struct GoldenDigest {
  const char* label;
  std::uint64_t digest;
};

constexpr GoldenDigest kGolden[] = {
#include "search_golden_digests.inc"
};

struct Workload {
  std::unique_ptr<ItemTable> table;
  std::unique_ptr<Profile> profile;
  std::unique_ptr<PackageEvaluator> evaluator;
  std::unique_ptr<TopKPkgSearch> search;
};

std::shared_ptr<Workload> MakeWorkload(ItemTable table,
                                       const std::string& profile_spec,
                                       std::size_t phi) {
  auto w = std::make_shared<Workload>();
  w->table = std::make_unique<ItemTable>(std::move(table));
  w->profile = std::make_unique<Profile>(
      std::move(Profile::Parse(profile_spec)).value());
  w->evaluator = std::make_unique<PackageEvaluator>(w->table.get(),
                                                    w->profile.get(), phi);
  w->search = std::make_unique<TopKPkgSearch>(w->evaluator.get());
  return w;
}

// The same generators as search_batch_property_test, draw for draw, so the
// corpus covers exactly the pools that test sweeps.
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

Vec RandomWeights(std::size_t m, Rng& rng) {
  Vec w = rng.UniformVector(m, -1.0, 1.0);
  for (double& v : w) {
    if (rng.Bernoulli(0.2)) v = 0.0;
  }
  return w;
}

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

struct Case {
  std::string label;
  std::shared_ptr<Workload> workload;
  std::vector<Vec> pool;
  std::size_t k = 1;
  SearchLimits limits;
  const TopKPkgSearch::PackageFilter* filter = nullptr;
};

const TopKPkgSearch::PackageFilter& OnlyPairs() {
  static const TopKPkgSearch::PackageFilter f = [](const Package& p) {
    return p.size() == 2;
  };
  return f;
}

SearchLimits NamedLimits(const std::string& name) {
  SearchLimits l;
  if (name == "ties") l.expand_on_ties = true;
  if (name == "tiny_expansions") l.max_expansions = 20;
  if (name == "tiny_queue") l.max_queue = 3;
  if (name == "tiny_access") l.max_items_accessed = 7;
  return l;
}

std::vector<Case> BuildCorpus() {
  std::vector<Case> cases;

  // BatchEquivalenceSweep: (seed, spec, width) × limits, nulls by seed.
  const char* specs[] = {"sum,avg", "max,min", "sum,max,min", "avg,min",
                         "min,avg,min"};
  const char* limit_names[] = {"exact", "ties", "tiny_expansions",
                               "tiny_queue", "tiny_access"};
  for (int seed : {1, 2, 3}) {
    for (const char* spec : specs) {
      for (int width : {1, 2, 7, 64}) {
        const std::size_t m =
            std::move(Profile::Parse(spec)).value().num_features();
        Rng rng(static_cast<uint64_t>(seed) * 104729 + 7 * width);
        const double null_prob = (seed % 2 == 0) ? 0.25 : 0.0;
        auto w = MakeWorkload(RandomTable(12, m, null_prob, rng), spec, 3);
        for (const char* limit_name : limit_names) {
          Case c;
          c.workload = w;
          c.pool = SignCoherentPool(m, static_cast<std::size_t>(width), rng);
          c.k = 1 + static_cast<std::size_t>(rng.UniformInt(5));
          c.limits = NamedLimits(limit_name);
          c.label = std::string("sweep seed=") + std::to_string(seed) +
                    " spec=" + spec + " width=" + std::to_string(width) +
                    " limits=" + limit_name +
                    " nulls=" + (null_prob > 0.0 ? "1" : "0");
          cases.push_back(std::move(c));
        }
      }
    }
  }

  // SimdCompactionSweep pools: inputs depend on the width alone.
  for (int width : {7, 37, 64}) {
    Rng rng(4242 + width);
    auto w = MakeWorkload(RandomTable(12, 3, 0.2, rng), "sum,avg,min", 3);
    for (const char* limit_name : {"exact", "tiny_access", "tiny_queue"}) {
      Case c;
      c.workload = w;
      c.pool = SignCoherentPool(3, static_cast<std::size_t>(width), rng);
      c.k = 4;
      c.limits = NamedLimits(limit_name);
      c.label = "simd width=" + std::to_string(width) +
                " limits=" + limit_name;
      cases.push_back(std::move(c));
    }
  }

  // Heterogeneous pool: mixed signatures, an exact duplicate, an all-zero
  // lane (the lexicographic tie-break path), and NaN lanes (their own
  // signature class; two share a walk, one walks alone).
  {
    Rng rng(2026);
    auto w = MakeWorkload(RandomTable(12, 3, 0.2, rng), "sum,min,avg", 3);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Vec> pool = {
        {0.8, 0.2, 0.5},   {0.6, 0.9, 0.1},  {0.8, 0.2, 0.5},
        {-0.4, 0.7, 0.3},  {0.5, -0.6, 0.2}, {0.0, 0.0, 0.0},
        {0.3, 0.0, -0.9},  {-0.1, -0.2, -0.3}, {nan, 0.4, 0.2},
        {nan, 0.7, 0.1},   {0.5, nan, -0.3},
    };
    for (const char* limit_name : {"exact", "ties"}) {
      Case c;
      c.workload = w;
      c.pool = pool;
      c.k = 4;
      c.limits = NamedLimits(limit_name);
      c.label = std::string("heterogeneous limits=") + limit_name;
      cases.push_back(std::move(c));
    }
  }

  // Filtered pool.
  {
    Rng rng(31);
    auto w = MakeWorkload(RandomTable(11, 2, 0.0, rng), "sum,avg", 3);
    Case c;
    c.workload = w;
    for (int j = 0; j < 9; ++j) c.pool.push_back(RandomWeights(2, rng));
    c.k = 3;
    c.filter = &OnlyPairs();
    c.label = "filtered";
    cases.push_back(std::move(c));
  }

  // Chunked pool: wider than one mask word.
  {
    Rng rng(97);
    auto w = MakeWorkload(RandomTable(10, 2, 0.15, rng), "sum,min", 3);
    Case c;
    c.workload = w;
    c.pool = SignCoherentPool(2, kMaxBatchLanes + 7, rng);
    c.k = 3;
    c.label = "chunked";
    cases.push_back(std::move(c));
  }
  return cases;
}

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t DigestOf(const std::vector<SearchResult>& lanes) {
  Fnv1a h;
  h.Add(static_cast<std::uint64_t>(lanes.size()));
  for (const SearchResult& r : lanes) {
    h.Add(static_cast<std::uint64_t>(r.truncated ? 1 : 0));
    h.Add(static_cast<std::uint64_t>(r.items_accessed));
    h.Add(static_cast<std::uint64_t>(r.packages_generated));
    h.Add(static_cast<std::uint64_t>(r.expansions));
    h.Add(static_cast<std::uint64_t>(r.packages.size()));
    for (const ScoredPackage& sp : r.packages) {
      h.Add(static_cast<std::uint64_t>(sp.package.size()));
      for (model::ItemId id : sp.package.items()) {
        h.Add(static_cast<std::uint64_t>(id));
      }
      h.Add(sp.utility);
    }
  }
  return h.value();
}

std::string Dump(const std::vector<SearchResult>& lanes) {
  std::ostringstream out;
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    const SearchResult& r = lanes[j];
    out << "  lane " << j << ": truncated=" << r.truncated
        << " items_accessed=" << r.items_accessed
        << " packages_generated=" << r.packages_generated
        << " expansions=" << r.expansions << "\n";
    for (const ScoredPackage& sp : r.packages) {
      char util[64];
      std::snprintf(util, sizeof(util), "%a", sp.utility);
      out << "    {";
      for (std::size_t i = 0; i < sp.package.size(); ++i) {
        out << (i ? "," : "") << sp.package.items()[i];
      }
      out << "} " << util << "\n";
    }
  }
  return out.str();
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

TEST(SearchGoldenTest, CorpusMatchesCommittedDigests) {
  std::map<std::string, std::uint64_t> golden;
  for (const GoldenDigest& g : kGolden) {
    ASSERT_TRUE(golden.emplace(g.label, g.digest).second)
        << "duplicate golden label: " << g.label;
  }
  const bool dump = std::getenv("TOPKPKG_GOLDEN_DUMP") != nullptr;

  const std::vector<Case> corpus = BuildCorpus();
  std::set<std::string> seen;
  for (const Case& c : corpus) {
    ASSERT_TRUE(seen.insert(c.label).second) << "duplicate case: " << c.label;
    const TopKPkgSearch& search = *c.workload->search;
    std::vector<const Vec*> ptrs;
    for (const Vec& w : c.pool) ptrs.push_back(&w);

    auto batch = search.SearchBatch(ptrs, c.k, c.limits, c.filter);
    ASSERT_TRUE(batch.ok()) << c.label << ": " << batch.status();
    std::vector<SearchResult> single;
    for (const Vec& w : c.pool) {
      auto r = search.Search(w, c.k, c.limits, c.filter);
      ASSERT_TRUE(r.ok()) << c.label << ": " << r.status();
      single.push_back(std::move(*r));
    }

    const std::uint64_t got = DigestOf(*batch);
    if (dump) {
      std::printf("{\"%s\", %sULL},\n", c.label.c_str(), Hex(got).c_str());
    }
    auto it = golden.find(c.label);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for case: " << c.label;
      continue;
    }
    const std::pair<const char*, const std::vector<SearchResult>*> runs[] = {
        {"SearchBatch", &*batch},
        {"Search", &single},
    };
    for (const auto& [entry, lanes] : runs) {
      const std::uint64_t d = DigestOf(*lanes);
      EXPECT_EQ(d, it->second)
          << c.label << " via " << entry << ": digest " << Hex(d)
          << " != golden " << Hex(it->second) << "\n"
          << Dump(*lanes);
    }
  }
  for (const auto& [label, digest] : golden) {
    EXPECT_TRUE(seen.count(label) != 0)
        << "golden digest without a case: " << label;
  }
}

}  // namespace
}  // namespace topkpkg::topk
