#ifndef TOPKPKG_SAMPLING_REJECTION_SAMPLER_H_
#define TOPKPKG_SAMPLING_REJECTION_SAMPLER_H_

#include <cstddef>
#include <vector>

#include "topkpkg/common/random.h"
#include "topkpkg/common/status.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/prob/gaussian_mixture.h"
#include "topkpkg/sampling/constraint_checker.h"
#include "topkpkg/sampling/sample.h"

namespace topkpkg::sampling {

// Shared sampler knobs.
struct SamplerOptions {
  // Weight-vector box (Sec. 2.1 assumes w ∈ [-1, 1]^m).
  double box_lo = -1.0;
  double box_hi = 1.0;
  // Gives up (ResourceExhausted) if this many consecutive proposals fail to
  // produce a valid sample — the symptom of an (almost) empty valid region.
  std::size_t max_attempts_per_sample = 200000;
  // Sec. 7 noise model; psi = 1 keeps constraints hard.
  pref::NoiseModel noise;
};

// Sec. 3.1: sample w from the prior P_w, reject any sample violating the
// feedback. By Lemma 1 the accepted samples follow the posterior
// P_w(w | S_ρ) exactly, but as feedback accumulates the acceptance region
// shrinks and more and more proposals are wasted.
class RejectionSampler {
 public:
  // `prior` and `checker` must outlive the sampler.
  RejectionSampler(const prob::GaussianMixture* prior,
                   const ConstraintChecker* checker,
                   SamplerOptions options = {});

  // Draws `n` valid samples (each with weight 1). `stats`, when provided, is
  // accumulated into.
  Result<std::vector<WeightedSample>> Draw(std::size_t n, Rng& rng,
                                           SampleStats* stats = nullptr) const;

  // Draws a single valid sample; used by the MCMC sampler to find a starting
  // point inside the polytope.
  Result<WeightedSample> DrawOne(Rng& rng, SampleStats* stats = nullptr) const;

 private:
  const prob::GaussianMixture* prior_;
  const ConstraintChecker* checker_;
  SamplerOptions options_;
};

}  // namespace topkpkg::sampling

#endif  // TOPKPKG_SAMPLING_REJECTION_SAMPLER_H_
