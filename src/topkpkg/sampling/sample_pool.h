#ifndef TOPKPKG_SAMPLING_SAMPLE_POOL_H_
#define TOPKPKG_SAMPLING_SAMPLE_POOL_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/common/vec.h"
#include "topkpkg/sampling/sample.h"

namespace topkpkg::sampling {

// What one pool mutation did, in terms of stable SampleIds. The round
// engine's reuse accounting (RoundLog) and IS survivor reweighting consume
// this instead of diffing the pool: `added_ids` entered with this mutation
// and `surviving_ids` were present before and still are. added ∪ surviving
// = the pool's current ids.
struct PoolDelta {
  std::vector<SampleId> added_ids;
  std::vector<SampleId> surviving_ids;
};

// The pool S of previously generated weight-vector samples, kept alive across
// feedback rounds (Sec. 3.4: valid samples still follow P_w after new
// feedback, so only violators need replacing). Mints a stable SampleId for
// every sample that enters, and reports each mutation as a PoolDelta. It is
// the only owner of sample state: the ranking layer caches top lists by id
// and reads each sample's weight vector and importance weight from here.
// Maintains per-coordinate sorted index lists — the structure Algorithm 1's
// TA-based violator scan walks — rebuilding them lazily after mutations.
class SamplePool {
 public:
  SamplePool() = default;
  explicit SamplePool(std::vector<WeightedSample> samples)
      : samples_(std::move(samples)) {
    for (auto& s : samples_) s.id = MintId();
  }

  std::size_t size() const { return samples_.size(); }
  std::size_t dim() const {
    return samples_.empty() ? 0 : samples_[0].w.size();
  }
  const std::vector<WeightedSample>& samples() const { return samples_; }
  const WeightedSample& sample(std::size_t i) const { return samples_[i]; }
  SampleId id(std::size_t i) const { return samples_[i].id; }

  // Appends fresh samples (their `id` fields are overwritten with newly
  // minted ids). The returned delta lists the new ids as added and every
  // pre-existing sample as surviving.
  PoolDelta Append(std::vector<WeightedSample> fresh);

  // Removes the samples at `indices` (need not be sorted or unique) and
  // appends `fresh` — the Sec. 3.4 replace-violators maintenance step.
  PoolDelta Replace(std::vector<std::size_t> indices,
                    std::vector<WeightedSample> fresh);

  // Rebuilds a pool from checkpointed samples that carry their original
  // (non-zero) ids, in their original order, and advances the process-wide
  // id source past the largest restored id — a restored pool's identities
  // survive restart AND can never collide with ids minted afterwards.
  static Result<SamplePool> FromSnapshot(std::vector<WeightedSample> samples);

  // Overwrites sample i's importance weight in place (survivor reweighting
  // under a changed proposal). The weight feeds only the ranking
  // aggregation, which reads it from here, so the sorted index lists, the
  // SoA batch and cached top lists — all built from the weight *vectors* —
  // stay valid.
  void set_weight(std::size_t i, double weight) {
    samples_[i].weight = weight;
  }

  // Entry (value, sample index) lists, one per coordinate, ascending by
  // value. Built on first use and invalidated by mutations.
  using SortedList = std::vector<std::pair<double, std::uint32_t>>;
  const std::vector<SortedList>& sorted_lists() const;

  // Struct-of-arrays view of the pool's weight vectors, built on first use
  // and invalidated by mutations; the batched violator scan
  // (ConstraintChecker::IsValidBatch) sweeps its columns instead of the
  // row-major samples.
  const WeightBatch& batch() const;

 private:
  // Process-wide monotone id source, so ids never collide across pool
  // instances (a warm TopListCache can therefore never serve another pool's
  // list for a colliding id).
  static SampleId MintId();
  // Raises the id source so every future MintId() exceeds `floor` (restore
  // path; monotone, never lowers it).
  static void EnsureMintAbove(SampleId floor);

  std::vector<WeightedSample> samples_;
  mutable std::vector<SortedList> sorted_lists_;
  mutable bool lists_dirty_ = true;
  mutable WeightBatch batch_;
  mutable bool batch_dirty_ = true;
};

}  // namespace topkpkg::sampling

#endif  // TOPKPKG_SAMPLING_SAMPLE_POOL_H_
