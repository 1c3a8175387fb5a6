#include "topkpkg/ranking/rankers.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topkpkg/obs/metrics.h"

namespace topkpkg::ranking {

namespace {

using model::Package;
using model::PackageHash;

// Registry handles for the shared search work-list; every ranking path
// (from-scratch and incremental) funnels through ComputeSampleLists, so
// counting here covers both without double counting.
struct RankingMetrics {
  obs::Counter* sample_lists;
  obs::Counter* unique_searches;
  obs::Counter* dedup_hits;
};

const RankingMetrics& Metrics() {
  static const RankingMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* mm = new RankingMetrics();
    mm->sample_lists =
        reg.GetCounter("topkpkg_ranking_sample_lists_total",
                       "Per-sample top lists requested from the ranker");
    mm->unique_searches =
        reg.GetCounter("topkpkg_ranking_unique_searches_total",
                       "Top-k searches actually run after weight-vector "
                       "memoization");
    mm->dedup_hits =
        reg.GetCounter("topkpkg_ranking_dedup_hits_total",
                       "Sample lists served by the weight-vector memo");
    return mm;
  }();
  return *m;
}

}  // namespace

const char* SemanticsName(Semantics s) {
  switch (s) {
    case Semantics::kExp:
      return "EXP";
    case Semantics::kTkp:
      return "TKP";
    case Semantics::kMpo:
      return "MPO";
  }
  return "?";
}

Result<std::vector<SampleTopList>> PackageRanker::ComputeSampleLists(
    const std::vector<sampling::WeightedSample>& samples,
    const RankingOptions& options, SearchDedupStats* dedup) const {
  std::vector<const sampling::WeightedSample*> ptrs;
  ptrs.reserve(samples.size());
  for (const auto& s : samples) ptrs.push_back(&s);
  return ComputeSampleLists(ptrs, options, dedup);
}

Result<std::vector<SampleTopList>> PackageRanker::ComputeSampleLists(
    const std::vector<const sampling::WeightedSample*>& samples,
    const RankingOptions& options, SearchDedupStats* dedup) const {
  const std::size_t list_size = std::max(options.k, options.sigma);
  const topk::TopKPkgSearch::PackageFilter* filter =
      options.package_filter ? &options.package_filter : nullptr;
  // MCMC pools repeat states whenever a Metropolis step is rejected, and the
  // search result depends only on the exact weight vector — memoize on its
  // bit pattern so duplicated samples cost one search. `unique_of[i]` maps
  // sample i to its slot in the deduplicated search work-list.
  std::unordered_map<std::string, std::size_t> memo;
  std::vector<std::size_t> unique_of(samples.size());
  std::vector<const sampling::WeightedSample*> unique_samples;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::string key(reinterpret_cast<const char*>(samples[i]->w.data()),
                    samples[i]->w.size() * sizeof(double));
    auto [it, inserted] = memo.emplace(key, unique_samples.size());
    if (inserted) unique_samples.push_back(samples[i]);
    unique_of[i] = it->second;
  }
  if (dedup != nullptr) {
    dedup->total_samples = samples.size();
    dedup->unique_searches = unique_samples.size();
    dedup->dedup_hits = samples.size() - unique_samples.size();
  }
  const RankingMetrics& m = Metrics();
  m.sample_lists->Increment(samples.size());
  m.unique_searches->Increment(unique_samples.size());
  m.dedup_hits->Increment(samples.size() - unique_samples.size());

  // One SearchBatch call per chunk of kMaxBatchLanes signature-sorted
  // unique samples, one shared walk's worth. Sorting keeps chunks
  // homogeneous — a SearchBatch call walks once per distinct access
  // signature it receives, so mixing signatures in one chunk forfeits the
  // sharing. Chunking never changes the output (every lane is bit-identical
  // to Search).
  std::vector<Result<topk::SearchResult>> searched(
      unique_samples.size(), Status::Internal("search not run"));
  constexpr std::size_t width = topk::kMaxBatchLanes;
  std::vector<std::string> sigs(unique_samples.size());
  for (std::size_t u = 0; u < unique_samples.size(); ++u) {
    sigs[u] = topk::AccessSignature(evaluator_->profile(),
                                    unique_samples[u]->w);
  }
  std::vector<std::size_t> batch_order(unique_samples.size());
  for (std::size_t u = 0; u < batch_order.size(); ++u) batch_order[u] = u;
  std::stable_sort(batch_order.begin(), batch_order.end(),
                   [&](std::size_t a, std::size_t c) {
                     return sigs[a] < sigs[c];
                   });
  for (std::size_t begin = 0; begin < batch_order.size(); begin += width) {
    const std::size_t end = std::min(begin + width, batch_order.size());
    std::vector<const Vec*> ws;
    ws.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      ws.push_back(&unique_samples[batch_order[i]]->w);
    }
    auto batch = search_.SearchBatch(ws, list_size, options.limits, filter);
    for (std::size_t i = begin; i < end; ++i) {
      if (batch.ok()) {
        searched[batch_order[i]] = std::move((*batch)[i - begin]);
      } else {
        searched[batch_order[i]] = batch.status();
      }
    }
  }

  // Each unique result's package list is moved out at its last use and
  // copied only for earlier duplicates, so the common all-unique pool pays
  // no extra copies.
  std::vector<std::size_t> last_use(unique_samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) last_use[unique_of[i]] = i;
  std::vector<SampleTopList> lists;
  lists.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Result<topk::SearchResult>& res = searched[unique_of[i]];
    if (!res.ok()) return res.status();
    SampleTopList list;
    list.packages = last_use[unique_of[i]] == i ? std::move(res->packages)
                                                : res->packages;
    list.truncated = res->truncated;
    lists.push_back(std::move(list));
  }
  return lists;
}

RankingResult PackageRanker::Aggregate(
    const std::vector<sampling::WeightedSample>& samples,
    const std::vector<const SampleTopList*>& lists, Semantics semantics,
    const RankingOptions& options) const {
  RankingResult result;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    total_weight += samples[i].weight;
    result.any_truncated = result.any_truncated || lists[i]->truncated;
  }
  if (total_weight <= 0.0) return result;

  auto finalize = [&](std::vector<RankedPackage> ranked) {
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedPackage& a, const RankedPackage& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.package.items() < b.package.items();
              });
    if (ranked.size() > options.k) ranked.resize(options.k);
    result.packages = std::move(ranked);
  };

  switch (semantics) {
    case Semantics::kExp: {
      // Because the utility is linear in w, the expected utility is exact:
      // E_w[w·p̂] = w̄·p̂ with w̄ the (importance-weighted) mean weight
      // vector. The paper's sampling estimator — mean utility over the
      // samples where a package appears in the top list — is biased toward
      // packages that appear rarely but luckily; computing w̄·p̂ over the
      // candidate union (plus the top list under w̄ itself, so the true EXP
      // winner cannot be missed) avoids that bias at the same cost. That
      // search takes the package filter like the per-sample ones, so every
      // candidate has passed it.
      Vec mean_w(samples[0].w.size(), 0.0);
      for (std::size_t i = 0; i < lists.size(); ++i) {
        for (std::size_t f = 0; f < mean_w.size(); ++f) {
          mean_w[f] += samples[i].weight * samples[i].w[f];
        }
      }
      for (double& v : mean_w) v /= total_weight;

      std::unordered_map<Package, double, PackageHash> candidates;
      for (const SampleTopList* l : lists) {
        for (std::size_t i = 0; i < std::min(l->packages.size(), options.k);
             ++i) {
          candidates.emplace(l->packages[i].package, 0.0);
        }
      }
      const topk::TopKPkgSearch::PackageFilter* filter =
          options.package_filter ? &options.package_filter : nullptr;
      auto mean_top = search_.Search(mean_w, options.k, options.limits, filter);
      if (mean_top.ok()) {
        for (const auto& sp : mean_top->packages) {
          candidates.emplace(sp.package, 0.0);
        }
      }
      std::vector<RankedPackage> ranked;
      ranked.reserve(candidates.size());
      for (auto& [pkg, unused] : candidates) {
        ranked.push_back(
            RankedPackage{pkg, evaluator_->Utility(pkg, mean_w)});
      }
      finalize(std::move(ranked));
      break;
    }
    case Semantics::kTkp: {
      // Count (weighted) how often each package lands in the sample's top-σ.
      std::unordered_map<Package, double, PackageHash> counter;
      for (std::size_t s = 0; s < lists.size(); ++s) {
        const SampleTopList* l = lists[s];
        for (std::size_t i = 0;
             i < std::min(l->packages.size(), options.sigma); ++i) {
          counter[l->packages[i].package] += samples[s].weight;
        }
      }
      std::vector<RankedPackage> ranked;
      ranked.reserve(counter.size());
      for (auto& [pkg, w] : counter) {
        ranked.push_back(RankedPackage{pkg, w / total_weight});
      }
      finalize(std::move(ranked));
      break;
    }
    case Semantics::kMpo: {
      // Count (weighted) whole top-k lists; return the most probable one.
      struct ListStat {
        double weight = 0.0;
        const SampleTopList* exemplar = nullptr;
      };
      std::unordered_map<std::string, ListStat> counter;
      for (std::size_t s = 0; s < lists.size(); ++s) {
        const SampleTopList* l = lists[s];
        std::string key;
        for (std::size_t i = 0; i < std::min(l->packages.size(), options.k);
             ++i) {
          key += l->packages[i].package.Key();
          key += '|';
        }
        ListStat& st = counter[key];
        st.weight += samples[s].weight;
        if (st.exemplar == nullptr) st.exemplar = l;
      }
      const ListStat* best = nullptr;
      std::string best_key;
      for (auto& [key, st] : counter) {
        if (best == nullptr || st.weight > best->weight ||
            (st.weight == best->weight && key < best_key)) {
          best = &st;
          best_key = key;
        }
      }
      if (best != nullptr && best->exemplar != nullptr) {
        double prob = best->weight / total_weight;
        for (std::size_t i = 0;
             i < std::min(best->exemplar->packages.size(), options.k); ++i) {
          result.packages.push_back(
              RankedPackage{best->exemplar->packages[i].package, prob});
        }
      }
      break;
    }
  }
  return result;
}

Result<RankingResult> PackageRanker::Rank(
    const std::vector<sampling::WeightedSample>& samples, Semantics semantics,
    const RankingOptions& options, SearchDedupStats* dedup) const {
  TOPKPKG_ASSIGN_OR_RETURN(std::vector<SampleTopList> lists,
                           ComputeSampleLists(samples, options, dedup));
  std::vector<const SampleTopList*> ptrs;
  ptrs.reserve(lists.size());
  for (const SampleTopList& l : lists) ptrs.push_back(&l);
  return Aggregate(samples, ptrs, semantics, options);
}

}  // namespace topkpkg::ranking
