#ifndef TOPKPKG_COMMON_EXECUTION_OPTIONS_H_
#define TOPKPKG_COMMON_EXECUTION_OPTIONS_H_

#include <cstddef>

namespace topkpkg {

class ThreadPool;

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
};

}  // namespace topkpkg

#endif  // TOPKPKG_COMMON_EXECUTION_OPTIONS_H_
