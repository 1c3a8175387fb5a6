#ifndef TOPKPKG_PERFBENCH_WORKLOAD_H_
#define TOPKPKG_PERFBENCH_WORKLOAD_H_

// The three closed-loop serving workloads. Each drives the public serving
// API (SessionManager → SessionHandle::Feedback / GetTopK / End) from
// `clients` threads, every client blocking on its own future, so each
// request's submit-to-ready time is exact and a slow server receives less
// load. Every input — sessions, hidden user weights, request mix, Zipf
// picks — is generated from the workload seed; the library only ever sees
// the generated inputs.
//
//   cold_start   new users: StartSession, 7 × (hard-click Feedback, GetTopK),
//                End. Search-bound early rounds.
//   noisy_long   4 resident sessions of noisy users (psi = 0.9) served
//                round-robin: Feedback then GetTopK, repeated (about 50
//                rounds per session in 20 s). Sampling under accumulated
//                noisy feedback dominates.
//   fleet_churn  a store pre-populated with 5120 converged sessions (80× the
//                LRU capacity of 64), Zipf(s=1) popularity per client
//                partition, 50% GetTopK / 50% Feedback. Storage and
//                hydration dominate.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scrape.h"
#include "topkpkg/common/status.h"
#include "topkpkg/serving/session_manager.h"

namespace perfbench {

enum class WorkloadKind { kColdStart, kNoisyLong, kFleetChurn };

// Fixed per-workload shape.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kColdStart;
  const char* name = "";
  double user_psi = 1.0;  // Click noise; the sampler's noise.psi matches.
  // Sessions whose replies are kept; the first `prefix` replies of each
  // enter the output digest, and the top-1 of reply `prefix` the quality
  // metric.
  std::size_t tracked = 0;
  std::size_t prefix = 0;
  // The first `replayed` tracked sessions are replayed on bare
  // recommenders for their first `replay_prefix` replies.
  std::size_t replayed = 0;
  std::size_t replay_prefix = 0;
  std::size_t fleet = 0;  // fleet_churn: pre-populated sessions.
  // Complete set-ups a --trace 0 run times; setup_s is their median.
  std::size_t setups = 7;
  // Tail percentile caps, fixed so a change in sample count between runs
  // cannot switch the percentile a tail metric reports. GetTopK tails stop
  // at p90: above it they read scheduler wake-ups (cold_start) and shared-
  // disk fsync stalls (fleet_churn), which moved p95/p99 by 35-42% between
  // runs of the same code.
  double feedback_tail_cap = 0.99;
  double topk_tail_cap = 0.99;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t clients = 2;
  std::size_t workers = 2;
  // Stores and traces are created under here and removed afterwards.
  std::string work_dir;
  // Self-test scale: small fleet, few tracked sessions, short prefixes.
  bool tiny = false;
};

// The workload's shape at the run's scale; InvalidArgument for an unknown
// name.
topkpkg::Result<WorkloadSpec> SpecFor(const RunOptions& opts);

// Sums over the RoundLogs of every Feedback reply in a window.
struct RoundTotals {
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t constraint_checks = 0;
  std::uint64_t resampled = 0;
  std::uint64_t cache_hits = 0;     // searches_skipped
  std::uint64_t deduped = 0;        // searches_deduped
  std::uint64_t unique_searches = 0;

  void Add(const RoundTotals& o);
};

// Everything one set-up + timed window + teardown + output check measured.
struct WindowResult {
  double setup_s = 0.0;
  double open_s = 0.0;      // The window's SessionStore::Open.
  double wall_s = 0.0;      // First submit to last completion.
  double teardown_s = 0.0;  // SessionManager destruction (drain).
  // Raw submit-to-ready latencies (ms) of every completed request, split by
  // kind; `requests_ms` holds all of them, End included.
  std::vector<double> feedback_ms;
  std::vector<double> topk_ms;
  std::vector<double> requests_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // Failed + rejected.
  RoundTotals totals;
  Snapshot before;  // Registry scrape at window start ...
  Snapshot after;   // ... and once every client's last future resolved.
  topkpkg::serving::SessionManager::Stats stats;
  std::uint64_t disk_bytes = 0;  // Store directory size after teardown.
  std::size_t stored_sessions = 0;
  SpanProfile spans;  // Traced windows only.
  std::string digest;
  double quality = 0.0;  // Mean U*(top-1) / U*(exact top-1).
};

// One complete run: set-up (timed), the closed-loop window, teardown, then
// the output check — every reply well formed, the replayed sessions equal
// to always-resident bare recommenders, RoundLog for RoundLog. Any failed
// request, malformed reply or mismatch is an error.
topkpkg::Result<WindowResult> RunWindow(const RunOptions& opts, bool traced);

// Times one extra complete set-up (then tears it down).
topkpkg::Result<double> TimeSetup(const RunOptions& opts);

// Digest of the generated inputs alone (users, session seeds, request
// picks), for the self-test's same-seed / other-seed checks.
topkpkg::Result<std::string> ScriptDigest(const RunOptions& opts);

// VmHWM of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // TOPKPKG_PERFBENCH_WORKLOAD_H_
