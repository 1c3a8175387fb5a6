#ifndef TOPKPKG_RANKING_INCREMENTAL_RANKER_H_
#define TOPKPKG_RANKING_INCREMENTAL_RANKER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/sampling/sample_pool.h"

namespace topkpkg::ranking {

// Per-call reuse accounting for IncrementalRanker::Rank.
struct IncrementalRankStats {
  std::size_t searches_run = 0;      // Samples whose top list was computed.
  std::size_t searches_skipped = 0;  // Samples served from the cache.
  std::size_t searches_deduped = 0;  // Cache-missing duplicates served by the
                                     // unique-weight memo (no own search).
  std::size_t evicted = 0;           // Cache entries of samples that left
                                     // the pool, dropped this call.
  bool cache_invalidated = false;    // The whole cache was cleared this call.
};

// Stateful ranker for the incremental serving loop: a TopListCache keyed by
// stable SampleId holds each pooled sample's Top-k-Pkg result, so a round
// that replaced only the violators (Sec. 3.4) re-searches only the added
// samples — an unchanged weight vector provably yields an unchanged top
// list. Aggregation (EXP/TKP/MPO) re-runs every round over cached + fresh
// lists in pool order, which makes the result bit-identical to
// PackageRanker::Rank over the same pool.
//
// Invalidation rules: the cache is valid only for a fixed evaluator (bound
// at construction), search limits, result list length max(k, σ), and package
// filter. Limit/list-length changes are detected automatically and clear the
// cache; the filter is an opaque std::function, so only its presence is
// tracked — callers that swap the filter's behavior must call
// InvalidateAll() themselves. Every clear bumps ranking_epoch().
class IncrementalRanker {
 public:
  // `evaluator` must outlive the ranker.
  explicit IncrementalRanker(const model::PackageEvaluator* evaluator)
      : base_(evaluator) {}

  // Ranks the whole pool. Cache entries whose id is no longer in the pool
  // are dropped, and any pool sample without a cache entry (new samples, or
  // everything after an invalidation) is searched via the same
  // deduplicated, batched path PackageRanker uses.
  Result<RankingResult> Rank(const sampling::SamplePool& pool,
                             Semantics semantics,
                             const RankingOptions& options,
                             IncrementalRankStats* stats = nullptr);

  // Clears the TopListCache and bumps the epoch. Call when the package
  // filter's behavior (not just presence) changes.
  void InvalidateAll();

  // Incremented on every whole-cache invalidation (explicit or automatic).
  std::uint64_t ranking_epoch() const { return epoch_; }
  std::size_t cache_size() const { return cache_.size(); }

  // The RankingOptions fields a cached top list depends on.
  struct CacheKeyOptions {
    std::size_t list_size = 0;  // max(k, sigma)
    topk::SearchLimits limits;
    bool has_filter = false;
    bool operator==(const CacheKeyOptions& o) const {
      return list_size == o.list_size &&
             limits.max_expansions == o.limits.max_expansions &&
             limits.max_items_accessed == o.limits.max_items_accessed &&
             limits.max_queue == o.limits.max_queue &&
             limits.expand_on_ties == o.limits.expand_on_ties &&
             has_filter == o.has_filter;
    }
  };

  // --- storage-layer snapshot access -------------------------------------

  // The whole cache state, entries ascending by id so serialized snapshots
  // are deterministic. Pointers borrow from the cache; consume before the
  // next mutating call.
  struct CacheSnapshot {
    bool has_options = false;
    CacheKeyOptions options;
    std::uint64_t epoch = 0;
    std::vector<std::pair<sampling::SampleId, const SampleTopList*>> entries;
  };
  CacheSnapshot Snapshot() const;

  // Replaces the cache state with a snapshot's. Restoring the cached
  // options is what lets the first post-restore Rank() keep the entries
  // (same key → no auto-invalidation) instead of re-searching the pool.
  void RestoreSnapshot(
      bool has_options, const CacheKeyOptions& options, std::uint64_t epoch,
      std::vector<std::pair<sampling::SampleId, SampleTopList>> entries);

 private:
  using Cache = std::unordered_map<sampling::SampleId, SampleTopList>;

  PackageRanker base_;
  Cache cache_;
  // Empty between calls. Rank moves each pool sample's entry here and swaps
  // the maps, so whatever stayed behind belonged to samples that left the
  // pool; both maps keep their buckets, so steady-state rounds allocate
  // nothing for this.
  Cache live_;
  CacheKeyOptions cached_options_;
  bool has_cached_options_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace topkpkg::ranking

#endif  // TOPKPKG_RANKING_INCREMENTAL_RANKER_H_
