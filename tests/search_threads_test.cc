// Every search over one evaluator walks the catalog index that evaluator
// built once (PackageEvaluator::ascending_ids and the null census), so the
// sessions a SessionManager runs on different workers read the same lists at
// the same time. These tests run Search and SearchBatch from several threads
// over one evaluator — through one shared TopKPkgSearch with each thread's
// default scratch, and through a search object and scratch per thread — and
// require every result to equal the serial one bit for bit. Built under
// ThreadSanitizer (the CI TSan job runs this target), they also check that
// the shared reads are race-free.

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/model/package.h"
#include "topkpkg/topk/topk_pkg.h"

namespace topkpkg::topk {
namespace {

using model::ItemTable;
using model::PackageEvaluator;
using model::Profile;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kRepeats = 2;
constexpr std::size_t kK = 5;

class SharedIndexThreads : public ::testing::Test {
 protected:
  // Nulls on every column and a min aggregate, so walks under negative
  // weights read the evaluator's null census as well as its lists.
  void SetUp() override {
    Rng rng(4242);
    std::vector<Vec> rows;
    for (std::size_t i = 0; i < 120; ++i) {
      Vec row = rng.UniformVector(4, 0.0, 1.0);
      for (double& v : row) {
        if (rng.Bernoulli(0.15)) v = model::kNullValue;
      }
      rows.push_back(std::move(row));
    }
    table_ = std::make_unique<ItemTable>(
        std::move(ItemTable::Create(std::move(rows))).value());
    profile_ = std::make_unique<Profile>(
        std::move(Profile::Parse("sum,avg,min,max")).value());
    evaluator_ =
        std::make_unique<PackageEvaluator>(table_.get(), profile_.get(), 3);
    // Mixed signs with some exact zeros: several access signatures.
    for (std::size_t i = 0; i < 48; ++i) {
      Vec w = rng.UniformVector(4, -1.0, 1.0);
      for (double& v : w) {
        if (rng.Bernoulli(0.2)) v = 0.0;
      }
      weights_.push_back(std::move(w));
    }
  }

  std::unique_ptr<ItemTable> table_;
  std::unique_ptr<Profile> profile_;
  std::unique_ptr<PackageEvaluator> evaluator_;
  std::vector<Vec> weights_;
};

void ExpectSameResult(const SearchResult& got, const SearchResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.truncated, want.truncated) << label;
  EXPECT_EQ(got.items_accessed, want.items_accessed) << label;
  EXPECT_EQ(got.packages_generated, want.packages_generated) << label;
  EXPECT_EQ(got.expansions, want.expansions) << label;
  ASSERT_EQ(got.packages.size(), want.packages.size()) << label;
  for (std::size_t i = 0; i < got.packages.size(); ++i) {
    EXPECT_EQ(got.packages[i].package, want.packages[i].package)
        << label << " rank " << i;
    EXPECT_EQ(got.packages[i].utility, want.packages[i].utility)
        << label << " rank " << i;
  }
}

TEST_F(SharedIndexThreads, SearchFromManyThreadsMatchesSerial) {
  const TopKPkgSearch shared(evaluator_.get());
  std::vector<SearchResult> serial;
  for (const Vec& w : weights_) {
    auto r = shared.Search(w, kK);
    ASSERT_TRUE(r.ok()) << r.status();
    serial.push_back(std::move(r).value());
  }

  // got[t][i]: thread t's last result for weights_[i]; each thread starts
  // at a different offset so different walks overlap in time.
  std::vector<std::vector<SearchResult>> got(
      kThreads, std::vector<SearchResult>(weights_.size()));
  std::vector<std::vector<char>> ok(kThreads,
                                    std::vector<char>(weights_.size(), 0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Odd threads own a search object and scratch; even ones share.
      const TopKPkgSearch own(evaluator_.get());
      SearchScratch scratch;
      const bool shares = t % 2 == 0;
      const TopKPkgSearch& search = shares ? shared : own;
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t j = 0; j < weights_.size(); ++j) {
          const std::size_t i = (j + t * 11) % weights_.size();
          auto r = search.Search(weights_[i], kK, {}, nullptr,
                                 shares ? nullptr : &scratch);
          ok[t][i] = r.ok() ? 1 : 0;
          if (r.ok()) got[t][i] = std::move(r).value();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      ASSERT_TRUE(ok[t][i] != 0) << "thread " << t << " weights " << i;
      ExpectSameResult(got[t][i], serial[i],
                       "thread " + std::to_string(t) + " weights " +
                           std::to_string(i));
    }
  }
}

TEST_F(SharedIndexThreads, SearchBatchFromManyThreadsMatchesSerial) {
  const TopKPkgSearch shared(evaluator_.get());
  std::vector<const Vec*> pool;
  for (const Vec& w : weights_) pool.push_back(&w);
  auto serial = shared.SearchBatch(pool, kK);
  ASSERT_TRUE(serial.ok()) << serial.status();

  std::vector<std::vector<SearchResult>> got(kThreads);
  std::vector<char> ok(kThreads, 0);  // Not vector<bool>: one byte a thread.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const TopKPkgSearch own(evaluator_.get());
      const TopKPkgSearch& search = t % 2 == 0 ? shared : own;
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        auto r = search.SearchBatch(pool, kK);
        ok[t] = r.ok() ? 1 : 0;
        if (r.ok()) got[t] = std::move(r).value();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t] != 0) << "thread " << t;
    ASSERT_EQ(got[t].size(), serial->size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      ExpectSameResult(got[t][i], (*serial)[i],
                       "thread " + std::to_string(t) + " weights " +
                           std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace topkpkg::topk
