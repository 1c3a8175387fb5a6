#include "topkpkg/sampling/sample_pool.h"

#include <algorithm>
#include <atomic>

namespace topkpkg::sampling {

namespace {
// 0 is kInvalidSampleId.
std::atomic<SampleId> g_next_sample_id{1};
}  // namespace

SampleId SamplePool::MintId() {
  return g_next_sample_id.fetch_add(1, std::memory_order_relaxed);
}

void SamplePool::EnsureMintAbove(SampleId floor) {
  SampleId current = g_next_sample_id.load(std::memory_order_relaxed);
  while (current <= floor &&
         !g_next_sample_id.compare_exchange_weak(current, floor + 1,
                                                 std::memory_order_relaxed)) {
  }
}

Result<SamplePool> SamplePool::FromSnapshot(
    std::vector<WeightedSample> samples) {
  SampleId max_id = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SampleId id = samples[i].id;
    if (id == kInvalidSampleId) {
      return Status::InvalidArgument(
          "SamplePool::FromSnapshot: sample without an id");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (samples[j].id == id) {
        return Status::InvalidArgument(
            "SamplePool::FromSnapshot: duplicate sample id " +
            std::to_string(id));
      }
    }
    max_id = std::max(max_id, id);
  }
  EnsureMintAbove(max_id);
  SamplePool pool;
  pool.samples_ = std::move(samples);
  return pool;
}

PoolDelta SamplePool::Append(std::vector<WeightedSample> fresh) {
  PoolDelta delta;
  delta.surviving_ids.reserve(samples_.size());
  for (const auto& s : samples_) delta.surviving_ids.push_back(s.id);
  delta.added_ids.reserve(fresh.size());
  for (auto& s : fresh) {
    s.id = MintId();
    delta.added_ids.push_back(s.id);
    samples_.push_back(std::move(s));
  }
  lists_dirty_ = true;
  batch_dirty_ = true;
  return delta;
}

PoolDelta SamplePool::Replace(std::vector<std::size_t> indices,
                              std::vector<WeightedSample> fresh) {
  PoolDelta delta;
  if (!indices.empty()) {
    // Duplicate or unsorted violator indices (e.g. merged from several
    // constraint scans) must collapse to one removal each — dedup before the
    // compaction pass, which assumes strictly increasing removal positions.
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    std::size_t next_removed = 0;
    std::size_t write = 0;
    for (std::size_t read = 0; read < samples_.size(); ++read) {
      if (next_removed < indices.size() && indices[next_removed] == read) {
        ++next_removed;
        continue;
      }
      delta.surviving_ids.push_back(samples_[read].id);
      if (write != read) samples_[write] = std::move(samples_[read]);
      ++write;
    }
    samples_.resize(write);
  } else {
    delta.surviving_ids.reserve(samples_.size());
    for (const auto& s : samples_) delta.surviving_ids.push_back(s.id);
  }
  delta.added_ids.reserve(fresh.size());
  for (auto& s : fresh) {
    s.id = MintId();
    delta.added_ids.push_back(s.id);
    samples_.push_back(std::move(s));
  }
  lists_dirty_ = true;
  batch_dirty_ = true;
  return delta;
}

const std::vector<SamplePool::SortedList>& SamplePool::sorted_lists() const {
  if (lists_dirty_) {
    sorted_lists_.assign(dim(), {});
    for (std::size_t f = 0; f < sorted_lists_.size(); ++f) {
      SortedList& list = sorted_lists_[f];
      list.reserve(samples_.size());
      for (std::size_t i = 0; i < samples_.size(); ++i) {
        list.emplace_back(samples_[i].w[f], static_cast<std::uint32_t>(i));
      }
      std::sort(list.begin(), list.end());
    }
    lists_dirty_ = false;
  }
  return sorted_lists_;
}

const WeightBatch& SamplePool::batch() const {
  if (batch_dirty_) {
    batch_ = WeightBatch::FromSamples(samples_);
    batch_dirty_ = false;
  }
  return batch_;
}

}  // namespace topkpkg::sampling
