#ifndef TOPKPKG_SAMPLING_SAMPLE_H_
#define TOPKPKG_SAMPLING_SAMPLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topkpkg/common/vec.h"

namespace topkpkg::sampling {

// Stable identity of a sample across pool mutations. Ids are minted by
// SamplePool when a sample enters a pool (0 = "not pooled yet") and are
// process-wide unique — never reused, not even across pool instances — so
// downstream per-sample state — e.g. the ranking layer's cached top lists —
// can be keyed by id, survives the index reshuffling that Replace()'s
// compaction performs, and cannot collide when one consumer outlives or
// serves several pools.
using SampleId = std::uint64_t;
inline constexpr SampleId kInvalidSampleId = 0;

// One accepted weight-vector sample. `weight` is the importance weight
// q(w) = P_w(w)/Q_w(w); plain rejection and MCMC samples carry weight 1.
struct WeightedSample {
  Vec w;
  double weight = 1.0;
  SampleId id = kInvalidSampleId;
};

// Struct-of-arrays view over a batch of weight vectors: coordinate f of all
// samples lives contiguously in `column(f)`. Batched kernels (constraint
// checking, violator scans) iterate features outer / samples inner, turning
// the per-sample dot products into stride-1 passes that vectorize.
class WeightBatch {
 public:
  WeightBatch() = default;

  static WeightBatch FromSamples(const std::vector<WeightedSample>& samples) {
    WeightBatch batch;
    batch.size_ = samples.size();
    batch.dim_ = samples.empty() ? 0 : samples[0].w.size();
    batch.columns_.resize(batch.size_ * batch.dim_);
    for (std::size_t i = 0; i < batch.size_; ++i) {
      for (std::size_t f = 0; f < batch.dim_; ++f) {
        batch.columns_[f * batch.size_ + i] = samples[i].w[f];
      }
    }
    return batch;
  }

  std::size_t size() const { return size_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }

  // Coordinate f of every sample, contiguous, length size().
  const double* column(std::size_t f) const {
    return columns_.data() + f * size_;
  }
  double at(std::size_t f, std::size_t i) const {
    return columns_[f * size_ + i];
  }

 private:
  std::size_t size_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> columns_;
};

// Bookkeeping reported by the samplers; benches print these to reproduce the
// acceptance-rate story of Fig. 4 and the timing curves of Fig. 6.
struct SampleStats {
  std::size_t proposed = 0;             // Raw proposals drawn.
  std::size_t accepted = 0;             // Samples returned.
  std::size_t rejected_constraint = 0;  // Violated some preference.
  std::size_t rejected_box = 0;         // Left the [-1,1]^m weight box.
  std::size_t rejected_mh = 0;          // MH density rejections (MCMC only).
  std::size_t constraint_checks = 0;    // Individual w·diff evaluations.
  double seconds = 0.0;

  double AcceptanceRate() const {
    return proposed == 0 ? 0.0
                         : static_cast<double>(accepted) /
                               static_cast<double>(proposed);
  }
};

}  // namespace topkpkg::sampling

#endif  // TOPKPKG_SAMPLING_SAMPLE_H_
