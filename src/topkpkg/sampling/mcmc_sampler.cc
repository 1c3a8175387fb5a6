#include "topkpkg/sampling/mcmc_sampler.h"

#include <cmath>
#include <utility>

#include "topkpkg/common/timer.h"
#include "topkpkg/sampling/sampler_metrics.h"

namespace topkpkg::sampling {

McmcSampler::McmcSampler(const prob::GaussianMixture* prior,
                         const ConstraintChecker* checker,
                         McmcSamplerOptions options)
    : prior_(prior), checker_(checker), options_(options) {}

Result<std::vector<WeightedSample>> McmcSampler::Draw(
    std::size_t n, Rng& rng, SampleStats* stats) const {
  if (options_.thinning == 0) {
    return Status::InvalidArgument(
        "McmcSampler: McmcSamplerOptions.thinning must be at least 1");
  }
  internal::ScopedDrawFlush flush("MS", &stats);
  Timer timer;
  // Find a first valid state with plain rejection sampling (Sec. 5.1: "during
  // this process we leverage the simple rejection sampling").
  RejectionSampler bootstrap(prior_, checker_, options_.base);
  TOPKPKG_ASSIGN_OR_RETURN(WeightedSample start, bootstrap.DrawOne(rng, stats));

  Vec w = std::move(start.w);
  double log_pw = prior_->LogPdf(w);
  const std::size_t dim = w.size();

  std::vector<WeightedSample> out;
  out.reserve(n);
  std::size_t step = 0;
  const std::size_t max_steps =
      options_.burn_in + options_.base.max_attempts_per_sample +
      n * options_.thinning;
  while (out.size() < n) {
    if (++step > max_steps) {
      if (stats != nullptr) stats->seconds += timer.ElapsedSeconds();
      return Status::ResourceExhausted("McmcSampler: chain failed to mix");
    }
    Vec delta = rng.UniformInBall(dim, options_.lmax);
    Vec proposal = Add(w, delta);
    if (stats != nullptr) ++stats->proposed;

    bool valid = InBox(proposal, options_.base.box_lo, options_.base.box_hi);
    if (!valid && stats != nullptr) ++stats->rejected_box;
    if (valid) {
      std::size_t checks = 0;
      if (options_.base.noise.psi >= 1.0) {
        valid = checker_->IsValid(proposal, &checks);
      } else {
        std::size_t violations = checker_->Violations(proposal, &checks);
        valid = !options_.base.noise.ShouldReject(violations, rng);
      }
      if (stats != nullptr) {
        stats->constraint_checks += checks;
        if (!valid) ++stats->rejected_constraint;
      }
    }

    if (valid) {
      // Symmetric proposal: α = min{1, P_w(w')/P_w(w)} (Eq. 7).
      double log_pw_new = prior_->LogPdf(proposal);
      double log_alpha = log_pw_new - log_pw;
      if (log_alpha >= 0.0 || std::log(rng.Uniform()) < log_alpha) {
        w = std::move(proposal);
        log_pw = log_pw_new;
      } else if (stats != nullptr) {
        ++stats->rejected_mh;
      }
    }
    // Whether moved or not, the current state is the next chain element;
    // collect every δ-th state after burn-in.
    if (step > options_.burn_in && step % options_.thinning == 0) {
      out.push_back(WeightedSample{w, 1.0});
      if (stats != nullptr) ++stats->accepted;
    }
  }
  if (stats != nullptr) stats->seconds += timer.ElapsedSeconds();
  return out;
}

}  // namespace topkpkg::sampling
