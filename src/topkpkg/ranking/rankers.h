#ifndef TOPKPKG_RANKING_RANKERS_H_
#define TOPKPKG_RANKING_RANKERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/model/package.h"
#include "topkpkg/sampling/sample.h"
#include "topkpkg/topk/topk_pkg.h"

namespace topkpkg::ranking {

// The three package ranking semantics of Sec. 2.2, all evaluated over the
// same pool of weight-vector samples (Sec. 4):
//   EXP — rank by (estimated) expected utility E_w[w·p],
//   TKP — rank by the probability of appearing in the top-σ under w,
//   MPO — return the most probable whole top-k list.
enum class Semantics { kExp, kTkp, kMpo };

const char* SemanticsName(Semantics s);

struct RankingOptions {
  std::size_t k = 5;      // Result list length.
  std::size_t sigma = 5;  // TKP's "top-σ positions" threshold.
  topk::SearchLimits limits;
  // Optional Sec. 7 schema predicate applied inside every search, the
  // per-sample ones and EXP's search under the mean weight vector (failing
  // packages are still expanded but never ranked).
  topk::TopKPkgSearch::PackageFilter package_filter;
};

// The unique-weight dedup outcome of one ComputeSampleLists call. MCMC pools
// repeat states whenever a Metropolis step is rejected, so the searched
// work-list is often much smaller than the pool — this is what makes
// batching (and the memo itself) attributable in round logs and benches.
struct SearchDedupStats {
  std::size_t total_samples = 0;    // Samples requested.
  std::size_t unique_searches = 0;  // Distinct weight vectors searched.
  std::size_t dedup_hits = 0;       // total_samples - unique_searches.
};

// One sample's search output: its top list (length max(k, σ)). The
// sample's weight vector and importance weight stay with the sample itself;
// Aggregate reads them from there.
struct SampleTopList {
  std::vector<topk::ScoredPackage> packages;
  bool truncated = false;  // The underlying search hit a safety valve.
};

struct RankedPackage {
  model::Package package;
  // Semantics-dependent score: estimated expected utility (EXP), estimated
  // top-σ probability (TKP), or the winning list's probability (MPO; equal
  // for all members of the list).
  double score = 0.0;
};

struct RankingResult {
  std::vector<RankedPackage> packages;  // Best first, at most k.
  bool any_truncated = false;  // A per-sample search hit a safety valve.
};

// Aggregates per-sample top-k package results under the selected ranking
// semantics. Use `ComputeSampleLists` once and feed the result to several
// `Aggregate` calls to rank the same pool under different semantics without
// re-running the package search.
class PackageRanker {
 public:
  // `evaluator` must outlive the ranker.
  explicit PackageRanker(const model::PackageEvaluator* evaluator)
      : evaluator_(evaluator), search_(evaluator) {}

  // Runs Top-k-Pkg once per unique sample with list length max(k, σ):
  // unique weight vectors are sorted by access signature, chunked into
  // topk::kMaxBatchLanes lanes, and each chunk goes through one
  // TopKPkgSearch::SearchBatch call (bit-identical per sample to Search).
  // `dedup`, when non-null, receives the unique-weight memo's hit
  // statistics.
  Result<std::vector<SampleTopList>> ComputeSampleLists(
      const std::vector<sampling::WeightedSample>& samples,
      const RankingOptions& options, SearchDedupStats* dedup = nullptr) const;

  // Same search over non-owning pointers (entries must be non-null), so
  // callers that select a subset of a pool (e.g. IncrementalRanker's
  // cache-missing samples) don't copy the weight vectors first.
  Result<std::vector<SampleTopList>> ComputeSampleLists(
      const std::vector<const sampling::WeightedSample*>& samples,
      const RankingOptions& options, SearchDedupStats* dedup = nullptr) const;

  // Pure aggregation of precomputed lists (Sec. 4's EXP/TKP/MPO logic):
  // `lists[i]` is `samples[i]`'s top list, whose weight vector and
  // importance weight are read from `samples[i]`. The lists are non-owning
  // pointers (non-null, one per sample), so callers that hold them elsewhere
  // (e.g. IncrementalRanker's top-list cache) aggregate without copying.
  RankingResult Aggregate(const std::vector<sampling::WeightedSample>& samples,
                          const std::vector<const SampleTopList*>& lists,
                          Semantics semantics,
                          const RankingOptions& options) const;

  // Convenience: ComputeSampleLists + Aggregate.
  Result<RankingResult> Rank(
      const std::vector<sampling::WeightedSample>& samples,
      Semantics semantics, const RankingOptions& options,
      SearchDedupStats* dedup = nullptr) const;

 private:
  const model::PackageEvaluator* evaluator_;
  topk::TopKPkgSearch search_;
};

}  // namespace topkpkg::ranking

#endif  // TOPKPKG_RANKING_RANKERS_H_
