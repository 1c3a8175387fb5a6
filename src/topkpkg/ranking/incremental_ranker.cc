#include "topkpkg/ranking/incremental_ranker.h"

#include <algorithm>
#include <utility>

#include "topkpkg/obs/metrics.h"

namespace topkpkg::ranking {

namespace {

// Incremental-cache effectiveness counters; the searches themselves are
// counted by the shared ComputeSampleLists path.
struct CacheMetrics {
  obs::Counter* cache_hits;
  obs::Counter* cache_evictions;
  obs::Counter* cache_invalidations;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* mm = new CacheMetrics();
    mm->cache_hits =
        reg.GetCounter("topkpkg_ranking_cache_hits_total",
                       "Sample top lists reused from the incremental cache "
                       "(searches skipped)");
    mm->cache_evictions =
        reg.GetCounter("topkpkg_ranking_cache_evictions_total",
                       "Cached lists dropped for removed pool samples");
    mm->cache_invalidations =
        reg.GetCounter("topkpkg_ranking_cache_invalidations_total",
                       "Whole-cache flushes from a ranking-option change");
    return mm;
  }();
  return *m;
}

}  // namespace

IncrementalRanker::CacheSnapshot IncrementalRanker::Snapshot() const {
  CacheSnapshot snap;
  snap.has_options = has_cached_options_;
  snap.options = cached_options_;
  snap.epoch = epoch_;
  snap.entries.reserve(cache_.size());
  for (const auto& [id, list] : cache_) snap.entries.emplace_back(id, &list);
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void IncrementalRanker::RestoreSnapshot(
    bool has_options, const CacheKeyOptions& options, std::uint64_t epoch,
    std::vector<std::pair<sampling::SampleId, SampleTopList>> entries) {
  cache_.clear();
  for (auto& [id, list] : entries) cache_[id] = std::move(list);
  cached_options_ = options;
  has_cached_options_ = has_options;
  epoch_ = epoch;
}

void IncrementalRanker::InvalidateAll() {
  cache_.clear();
  has_cached_options_ = false;
  ++epoch_;
}

Result<RankingResult> IncrementalRanker::Rank(const sampling::SamplePool& pool,
                                              Semantics semantics,
                                              const RankingOptions& options,
                                              IncrementalRankStats* stats) {
  IncrementalRankStats local;

  CacheKeyOptions key;
  key.list_size = std::max(options.k, options.sigma);
  key.limits = options.limits;
  key.has_filter = static_cast<bool>(options.package_filter);
  if (!has_cached_options_ || !(key == cached_options_)) {
    if (!cache_.empty()) local.cache_invalidated = true;
    InvalidateAll();
    cached_options_ = key;
    has_cached_options_ = true;
  }

  // One walk over the pool moves every cached list it still needs into
  // live_ and collects what the cache doesn't cover — new samples plus, if
  // the cache was just invalidated, the whole pool. Entries left behind
  // belong to samples that left the pool and are dropped.
  std::vector<const sampling::WeightedSample*> missing;
  live_.reserve(pool.size());
  for (const auto& s : pool.samples()) {
    auto node = cache_.extract(s.id);
    if (node.empty()) {
      missing.push_back(&s);
    } else {
      live_.insert(std::move(node));
    }
  }
  local.evicted = cache_.size();
  cache_.clear();
  cache_.swap(live_);

  // The missing samples get searched in one ComputeSampleLists call so they
  // share the dedup + batching machinery.
  if (!missing.empty()) {
    SearchDedupStats dedup;
    TOPKPKG_ASSIGN_OR_RETURN(
        std::vector<SampleTopList> fresh,
        base_.ComputeSampleLists(missing, options, &dedup));
    for (std::size_t i = 0; i < missing.size(); ++i) {
      cache_[missing[i]->id] = std::move(fresh[i]);
    }
    local.searches_deduped = dedup.dedup_hits;
  }
  local.searches_run = missing.size();
  local.searches_skipped = pool.size() - missing.size();

  // Assemble the per-sample lists in pool order — the exact input the
  // from-scratch PackageRanker::Rank would aggregate — as non-owning
  // pointers into the cache, and re-run the (cheap) aggregation.
  std::vector<const SampleTopList*> lists;
  lists.reserve(pool.size());
  for (const auto& s : pool.samples()) {
    lists.push_back(&cache_.at(s.id));
  }
  if (stats != nullptr) *stats = local;
  const CacheMetrics& m = Metrics();
  m.cache_hits->Increment(local.searches_skipped);
  m.cache_evictions->Increment(local.evicted);
  if (local.cache_invalidated) m.cache_invalidations->Increment();
  return base_.Aggregate(pool.samples(), lists, semantics, options);
}

}  // namespace topkpkg::ranking
