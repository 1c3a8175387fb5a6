#ifndef TOPKPKG_SAMPLING_SAMPLER_METRICS_H_
#define TOPKPKG_SAMPLING_SAMPLER_METRICS_H_

// Internal: per-sampler registry counters, labeled sampler="RS"|"IS"|"MS"
// to match recsys::SamplerKindName. Each Draw() flushes one delta of its
// SampleStats tally on exit, so the proposal loops never touch an atomic.

#include <string>

#include "topkpkg/obs/metrics.h"
#include "topkpkg/sampling/sample.h"

namespace topkpkg::sampling::internal {

struct SamplerCounters {
  obs::Counter* draw_calls;
  obs::Counter* proposed;
  obs::Counter* accepted;
  obs::Counter* rejected_box;
  obs::Counter* rejected_constraint;
  obs::Counter* rejected_mh;
};

inline const SamplerCounters& CountersFor(const char* label) {
  auto make = [](const char* l) {
    auto& reg = obs::MetricsRegistry::Global();
    const std::string lab = std::string("sampler=\"") + l + "\"";
    SamplerCounters c;
    c.draw_calls = reg.GetCounter("topkpkg_sampling_draw_calls_total",
                                  "Draw() batches requested", lab);
    c.proposed = reg.GetCounter("topkpkg_sampling_proposed_total",
                                "Weight-vector proposals drawn", lab);
    c.accepted = reg.GetCounter("topkpkg_sampling_accepted_total",
                                "Proposals accepted into the pool", lab);
    c.rejected_box = reg.GetCounter("topkpkg_sampling_rejected_box_total",
                                    "Proposals outside the weight box", lab);
    c.rejected_constraint = reg.GetCounter(
        "topkpkg_sampling_rejected_constraint_total",
        "Proposals rejected by the feedback constraints", lab);
    c.rejected_mh = reg.GetCounter(
        "topkpkg_sampling_rejected_mh_total",
        "Metropolis-Hastings moves declined (MCMC only)", lab);
    return c;
  };
  static const SamplerCounters rs = make("RS");
  static const SamplerCounters is = make("IS");
  static const SamplerCounters ms = make("MS");
  switch (label[0]) {
    case 'R':
      return rs;
    case 'I':
      return is;
    default:
      return ms;
  }
}

// Scoped around a Draw() body. Redirects a null caller SampleStats at a
// private fallback so the body always tallies somewhere, snapshots the
// tally on entry, and flushes the scope's delta to the labeled counters on
// exit.
class ScopedDrawFlush {
 public:
  ScopedDrawFlush(const char* label, SampleStats** stats)
      : label_(label), out_(stats) {
    if (*stats == nullptr) *stats = &fallback_;
    before_ = **stats;
  }
  ~ScopedDrawFlush() {
    const SampleStats& now = **out_;
    const SamplerCounters& c = CountersFor(label_);
    c.draw_calls->Increment();
    c.proposed->Increment(now.proposed - before_.proposed);
    c.accepted->Increment(now.accepted - before_.accepted);
    c.rejected_box->Increment(now.rejected_box - before_.rejected_box);
    c.rejected_constraint->Increment(now.rejected_constraint -
                                     before_.rejected_constraint);
    c.rejected_mh->Increment(now.rejected_mh - before_.rejected_mh);
  }
  ScopedDrawFlush(const ScopedDrawFlush&) = delete;
  ScopedDrawFlush& operator=(const ScopedDrawFlush&) = delete;

 private:
  const char* label_;
  SampleStats** out_;
  SampleStats fallback_;
  SampleStats before_;
};

}  // namespace topkpkg::sampling::internal

#endif  // TOPKPKG_SAMPLING_SAMPLER_METRICS_H_
