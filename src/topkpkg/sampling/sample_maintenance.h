#ifndef TOPKPKG_SAMPLING_SAMPLE_MAINTENANCE_H_
#define TOPKPKG_SAMPLING_SAMPLE_MAINTENANCE_H_

#include <cstddef>
#include <vector>

#include "topkpkg/pref/preference.h"
#include "topkpkg/sampling/sample_pool.h"

namespace topkpkg::sampling {

// How to find the pool samples invalidated by one new preference (Sec. 3.4 /
// Algorithm 1 / Fig. 7).
enum class MaintenanceStrategy {
  // Scan every sample; cost is always |S| full dot products.
  kNaive,
  // Threshold-algorithm scan over the per-coordinate sorted lists: cheap when
  // few samples violate, but its overhead exceeds the naive scan when many
  // do.
  kTa,
  // Algorithm 1: start as TA; once the accesses already made plus those left
  // in the current list reach (1+γ)·|S|, fall back to scanning the remaining
  // unseen samples directly.
  kHybrid,
};

const char* MaintenanceStrategyName(MaintenanceStrategy s);

struct MaintenanceResult {
  // Pool indices of samples violating the new preference.
  std::vector<std::size_t> violators;
  // Sorted-list accesses + direct sample checks performed (work proxy).
  std::size_t accesses = 0;
  // True if the hybrid strategy triggered its fallback scan.
  bool fell_back = false;
};

// Finds all pool samples w that violate `pref`, i.e. w·(p₂-p₁) > 0 for
// ρ := p₁ ≻ p₂. `gamma` is Algorithm 1's fallback knob (only used by
// kHybrid; smaller γ falls back sooner, behaving like the naive scan, larger
// γ behaves like pure TA).
MaintenanceResult FindViolators(const SamplePool& pool,
                                const pref::Preference& pref,
                                MaintenanceStrategy strategy,
                                double gamma = 0.025);

}  // namespace topkpkg::sampling

#endif  // TOPKPKG_SAMPLING_SAMPLE_MAINTENANCE_H_
