#include "topkpkg/sampling/sample_maintenance.h"

#include <algorithm>
#include <cmath>

namespace topkpkg::sampling {

namespace {

constexpr double kEps = 1e-12;

// A sample w violates ρ := p₁ ≻ p₂ iff w·(p₂-p₁) > 0; `query` is p₂-p₁.
Vec QueryVector(const pref::Preference& pref) {
  Vec q(pref.diff.size());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = -pref.diff[i];
  return q;
}

MaintenanceResult NaiveScan(const SamplePool& pool, const Vec& query) {
  MaintenanceResult result;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ++result.accesses;
    if (Dot(pool.sample(i).w, query) > kEps) result.violators.push_back(i);
  }
  return result;
}

// Walks one sorted list either ascending or descending depending on the sign
// of the query coordinate.
struct ListCursor {
  std::size_t feature;
  double coeff;     // query[feature], nonzero
  std::size_t pos;  // Entries consumed so far.

  // Value of the `pos`-th entry in access order.
  double ValueAt(const SamplePool::SortedList& list, std::size_t p) const {
    return coeff > 0.0 ? list[list.size() - 1 - p].first : list[p].first;
  }
  std::uint32_t IndexAt(const SamplePool::SortedList& list,
                        std::size_t p) const {
    return coeff > 0.0 ? list[list.size() - 1 - p].second : list[p].second;
  }
};

MaintenanceResult TaScan(const SamplePool& pool, const Vec& query,
                         bool hybrid, double gamma) {
  MaintenanceResult result;
  const auto& lists = pool.sorted_lists();
  const std::size_t n = pool.size();

  std::vector<ListCursor> cursors;
  for (std::size_t f = 0; f < query.size(); ++f) {
    if (query[f] != 0.0) cursors.push_back(ListCursor{f, query[f], 0});
  }
  if (cursors.empty() || n == 0) return result;  // w·query == 0 for all w.

  std::vector<bool> seen(n, false);
  std::size_t num_seen = 0;
  auto visit = [&](std::uint32_t idx) {
    if (seen[idx]) return;
    seen[idx] = true;
    ++num_seen;
    if (Dot(pool.sample(idx).w, query) > kEps) {
      result.violators.push_back(idx);
    }
  };

  // Round-robin threshold-algorithm scan with an incrementally maintained
  // threshold: τ = Σ coeff_f · frontier_f starts from each list's extreme
  // value and only the accessed list's term changes per step, so one access
  // costs O(1) bookkeeping. Any unseen sample is coordinate-wise no better
  // than τ in the query direction.
  double tau = 0.0;
  for (const ListCursor& c : cursors) {
    tau += c.coeff * c.ValueAt(lists[c.feature], 0);
  }
  bool done = false;
  while (!done) {
    done = true;
    for (ListCursor& cur : cursors) {
      const auto& list = lists[cur.feature];
      if (cur.pos >= list.size()) continue;
      if (hybrid) {
        // Algorithm 1 line 9: if the accesses already made plus those left in
        // the current list reach (1+γ)|S|, finish by scanning directly.
        std::size_t remain = list.size() - cur.pos;
        if (result.accesses + remain >=
            static_cast<std::size_t>((1.0 + gamma) * static_cast<double>(n))) {
          for (std::uint32_t idx = 0; idx < n; ++idx) {
            if (!seen[idx]) {
              ++result.accesses;
              visit(idx);
            }
          }
          result.fell_back = true;
          return result;
        }
      }
      done = false;
      ++result.accesses;
      visit(cur.IndexAt(list, cur.pos));
      tau -= cur.coeff * cur.ValueAt(list, cur.pos);
      ++cur.pos;
      if (cur.pos < list.size()) {
        tau += cur.coeff * cur.ValueAt(list, cur.pos);
      }
      // Threshold test: τ·query ≤ 0 means no unseen sample can violate.
      if (tau <= kEps || num_seen == n) return result;
    }
  }
  return result;
}

}  // namespace

const char* MaintenanceStrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kNaive:
      return "naive";
    case MaintenanceStrategy::kTa:
      return "ta";
    case MaintenanceStrategy::kHybrid:
      return "hybrid";
  }
  return "?";
}

MaintenanceResult FindViolators(const SamplePool& pool,
                                const pref::Preference& pref,
                                MaintenanceStrategy strategy, double gamma) {
  Vec query = QueryVector(pref);
  switch (strategy) {
    case MaintenanceStrategy::kNaive:
      return NaiveScan(pool, query);
    case MaintenanceStrategy::kTa:
      return TaScan(pool, query, /*hybrid=*/false, gamma);
    case MaintenanceStrategy::kHybrid:
      return TaScan(pool, query, /*hybrid=*/true, gamma);
  }
  return NaiveScan(pool, query);
}

}  // namespace topkpkg::sampling
