#ifndef TOPKPKG_COMMON_EXECUTION_OPTIONS_H_
#define TOPKPKG_COMMON_EXECUTION_OPTIONS_H_

#include <cstddef>

namespace topkpkg {

class ThreadPool;

// Instruction-set selection for the batched search's lane kernels
// (model/aggregate_kernel's AggBatchKernels suites). Every suite computes
// bit-identical per-lane results — the mode only changes how fast they
// arrive — so tests sweep both values to prove it.
enum class SimdMode {
  // Widest suite the running CPU supports: AVX2 when the binary carries the
  // -mavx2 dispatch object and the CPU has it, else the baseline-ISA
  // vector suite (SSE2 on x86-64), else scalar.
  kAuto = 0,
  // Force the scalar reference kernels (the header-inlined originals the
  // vector suites are verified against).
  kScalar,
};

// The one execution knob every parallel phase embeds (sampling draws,
// per-sample ranking searches, the recommender's round engine). Before this
// existed each options struct carried its own `num_threads` and the serving
// layer had no way to make N sessions share one pool; now a caller — the
// SessionManager above all — injects a shared pool through a single seam.
struct ExecutionOptions {
  // Degree of parallelism for the embedding phase. 1 = the classic serial
  // path (bit-identical to prior releases); >1 shards work into
  // deterministic blocks, so results are reproducible for a fixed seed but
  // may consume RNG streams differently than the serial path. The phase
  // honors this cap even when borrowing a larger shared pool.
  std::size_t num_threads = 1;

  // Optional caller-owned worker pool. When set, the phase borrows it
  // instead of spawning its own threads — the seam the SessionManager uses
  // to run thousands of sessions over one pool. The pool must outlive every
  // component holding these options. Null = the component spawns (or lazily
  // owns) workers itself when num_threads > 1. Thread count and pool
  // ownership never change any result, only where the work runs.
  ThreadPool* pool = nullptr;

  // Lane width for the batched per-sample ranking searches
  // (TopKPkgSearch::SearchBatch): unique weight vectors are chunked into
  // batches of this many lanes, which is also the unit of work sharded
  // across threads. The kernel caps a single shared walk at 64 lanes and
  // chunks wider batches internally, so values above 64 only coarsen the
  // sharding granularity. Never changes any result — only how many samples
  // share one walk.
  std::size_t batch_width = 64;

  // Lane-kernel instruction set for SearchBatch (see SimdMode). Never
  // changes any result — every suite is bit-identical per lane.
  SimdMode simd = SimdMode::kAuto;
};

}  // namespace topkpkg

#endif  // TOPKPKG_COMMON_EXECUTION_OPTIONS_H_
