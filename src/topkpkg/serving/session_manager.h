#ifndef TOPKPKG_SERVING_SESSION_MANAGER_H_
#define TOPKPKG_SERVING_SESSION_MANAGER_H_

// The multi-tenant serving frontend: one SessionManager multiplexes
// thousands of concurrent elicitation sessions over a single shared
// ThreadPool and a single durable SessionStore.
//
//   - Hydrated-LRU working set. At most `max_hydrated_sessions` live
//     PackageRecommenders are in memory at once; every other session exists
//     only as its checkpoint in the store. A request to a cold session
//     hydrates it on demand (Restore), evicting the least-recently-used
//     idle session first (Checkpoint, then drop). Because Checkpoint /
//     Restore round-trips are bit-identical, a session served through any
//     number of evict→hydrate cycles produces exactly the RoundLogs the
//     always-resident session would (session_manager_test proves it).
//
//   - Per-session FIFO, cross-session parallelism. Each session owns a
//     request queue drained strictly in order — two requests to one session
//     never interleave — while requests to distinct sessions run
//     concurrently on the shared pool. A round runs start to finish on the
//     one worker serving it.
//
//   - Capacity and backpressure. A session whose queue holds
//     `max_queued_requests_per_session` pending requests rejects further
//     submits with ResourceExhausted instead of buffering unboundedly; the
//     caller sheds load or retries.
//
//   - Self-healing under store failure. Checkpoint writes that fail are
//     retried with exponential backoff (`store_retry_limit`,
//     `store_retry_backoff_ms`); a victim whose checkpoint still fails
//     stays resident — a session is never dropped with rounds the store has
//     not seen — and the manager hydrates *over* capacity (degraded mode)
//     so requests keep completing through a store outage. An optional
//     background writeback thread checkpoints dirty idle sessions so most
//     evictions become free drops of already-durable state.
//
// Requests are submitted through a SessionHandle and complete as typed
// Result<T> futures: Feedback → Result<RoundLog>, GetTopK →
// Result<TopKSnapshot>, End → Status. Submission never blocks on session
// work; rejection (unknown session, full queue, shutdown) resolves the
// future immediately.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/common/thread_pool.h"
#include "topkpkg/model/package.h"
#include "topkpkg/obs/metrics.h"
#include "topkpkg/obs/trace.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/recsys/simulated_user.h"

namespace topkpkg::storage {
class SessionStore;
}

namespace topkpkg::serving {

using SessionId = std::uint64_t;

// GetTopK's reply: the session's current best-package list.
struct TopKSnapshot {
  std::vector<model::Package> top_k;
  std::size_t rounds_served = 0;  // Feedback rounds this session completed.
};

struct SessionManagerOptions {
  // Template every session's PackageRecommender is built from. Must stay
  // fixed for the manager's lifetime: the checkpoint config fingerprint is
  // derived from it, so changing it orphans cold sessions.
  recsys::RecommenderOptions recommender;
  // Hydrated-LRU capacity: max sessions resident in memory at once.
  std::size_t max_hydrated_sessions = 64;
  // Backpressure: pending requests per session before ResourceExhausted.
  std::size_t max_queued_requests_per_session = 64;
  // Shared worker pool size; 0 = ThreadPool::DefaultThreadCount().
  std::size_t num_workers = 0;
  // Self-healing: retries after a failed checkpoint write before the
  // manager gives up on that eviction and serves degraded instead.
  std::size_t store_retry_limit = 4;
  // First retry waits this long; each further retry doubles it. Slept off
  // every lock, so other sessions keep serving during the backoff.
  std::uint64_t store_retry_backoff_ms = 10;
  // Background writeback cadence: every interval, idle dirty sessions are
  // checkpointed so their later eviction is a free drop. 0 disables it.
  std::uint64_t writeback_interval_ms = 0;
  // Request tracing: sample 1 in N requests (deterministically, by request
  // id) into a TraceContext whose nested spans cover serve → RunRound →
  // phases → SearchBatch. 0 disables tracing entirely.
  std::uint64_t trace_sample_every = 0;
  // Where sampled traces are appended as JSONL, one trace per line. Empty
  // keeps sampling decisions flowing (for tests) but writes nothing.
  std::string trace_jsonl_path;
};

// One queued unit of session work. Exactly one of the result promises is
// armed, matching `kind`; the drain loop fulfills it when the request's
// turn comes.
struct SessionRequest {
  enum class Kind { kFeedback, kGetTopK, kEndSession };
  Kind kind = Kind::kFeedback;
  // kFeedback: the click model driving this round. Must outlive the future.
  const recsys::SimulatedUser* user = nullptr;
  // Stamped at enqueue so the drain can split queue wait from execute time.
  std::chrono::steady_clock::time_point enqueued_at{};
  // Minted at enqueue when tracing is on (ids count in submission order,
  // which makes 1-in-N sampling deterministic for tests).
  std::unique_ptr<obs::TraceContext> trace;
  std::promise<Result<recsys::RoundLog>> feedback_result;
  std::promise<Result<TopKSnapshot>> topk_result;
  std::promise<Status> end_result;
};

class SessionManager;

// Cheap value handle for submitting requests to one session. Valid only
// while the SessionManager that issued it is alive.
class SessionHandle {
 public:
  SessionHandle() = default;

  SessionId id() const { return id_; }

  // Runs one elicitation round (present → click → fold feedback) against
  // `user`, which must outlive the returned future's completion.
  std::future<Result<recsys::RoundLog>> Feedback(
      const recsys::SimulatedUser* user);

  // Reads the session's current top-k list (hydrating it if cold).
  std::future<Result<TopKSnapshot>> GetTopK();

  // Checkpoints the session to the store and drops it from memory. The
  // session's durable state survives; StartSession with the same id
  // re-opens it. Requests queued behind the End fail FailedPrecondition.
  std::future<Status> End();

 private:
  friend class SessionManager;
  SessionHandle(SessionManager* manager, SessionId id)
      : manager_(manager), id_(id) {}

  SessionManager* manager_ = nullptr;
  SessionId id_ = 0;
};

class SessionManager {
 public:
  struct Stats {
    std::size_t sessions = 0;       // Registered (live, non-ended) sessions.
    std::size_t hydrated = 0;       // Currently resident recommenders.
    std::uint64_t hydrations = 0;   // Cold → resident transitions.
    std::uint64_t evictions = 0;    // Checkpoint-then-drop LRU evictions.
    std::uint64_t completed = 0;    // Requests whose promise was fulfilled.
    std::uint64_t rejected = 0;     // Submits refused (backpressure etc.).
    std::uint64_t store_errors = 0;     // Failed store writes (every attempt).
    std::uint64_t store_retries = 0;    // Backed-off checkpoint re-attempts.
    std::uint64_t degraded_hydrations = 0;  // Hydrated over capacity because
                                            // no victim could checkpoint.
    std::uint64_t writebacks = 0;   // Background checkpoints of idle sessions.
    std::uint64_t clean_drops = 0;  // Evictions that needed no store write.
  };

  // Validates the configuration (including the recommender template, via
  // PackageRecommender::Create) and spins up the shared pool. `evaluator`,
  // `prior` and `store` must outlive the manager; the manager is the
  // store's only user while alive (SessionStore is single-owner).
  static Result<std::unique_ptr<SessionManager>> Create(
      const model::PackageEvaluator* evaluator,
      const prob::GaussianMixture* prior, storage::SessionStore* store,
      SessionManagerOptions options);

  // Completes every queued request, then checkpoints all still-hydrated
  // sessions so the store holds the full serving state.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Registers (or re-opens) session `id` and returns its handle. A session
  // with a checkpoint in the store resumes from it on first request —
  // `seed` only seeds brand-new sessions. Calling StartSession for an
  // already-registered live session returns the same handle (the seed is
  // ignored). FailedPrecondition after shutdown began.
  Result<SessionHandle> StartSession(SessionId id, std::uint64_t seed);

  // Handle-free submission surface (the handle methods forward here).
  std::future<Result<recsys::RoundLog>> SubmitFeedback(
      SessionId id, const recsys::SimulatedUser* user);
  std::future<Result<TopKSnapshot>> SubmitGetTopK(SessionId id);
  std::future<Status> SubmitEndSession(SessionId id);

  Stats stats() const;

 private:
  // Per-session serving state. Entries are created by StartSession and kept
  // for the manager's lifetime (an ended session stays as a tombstone so
  // late submits fail cleanly instead of resurrecting it).
  struct SessionState {
    SessionId id = 0;
    std::uint64_t seed = 0;
    // A list, not a deque: libstdc++'s deque allocates a map and a 512-byte
    // node even when empty, and every ended session keeps its empty queue
    // for the manager's lifetime.
    std::list<SessionRequest> queue;
    // A drain task for this session is queued or running (at most one ever
    // exists — this is what serializes a session's requests).
    bool scheduled = false;
    // A worker is executing / hydrating / evicting this session right now.
    // Busy sessions are never eviction victims.
    bool busy = false;
    bool ended = false;
    // The resident recommender has rounds the store has not seen. Set when
    // a feedback round completes, cleared by a successful checkpoint
    // (eviction, writeback, End, destructor). Clean sessions evict with no
    // store write. Mutated off-lock only while `busy` pins the session.
    bool dirty = false;
    std::unique_ptr<recsys::PackageRecommender> rec;  // Null when cold.
    // Intrusive LRU-list links (guarded by mu_). A session is linked iff it
    // is resident and idle (rec != nullptr && !busy) — exactly the eviction
    // candidates — so picking a victim is "read lru_head_", O(1), instead
    // of scanning every resident session under the manager lock.
    SessionState* lru_prev = nullptr;
    SessionState* lru_next = nullptr;
    bool in_lru = false;
    std::size_t rounds_served = 0;
  };

  SessionManager(const model::PackageEvaluator* evaluator,
                 const prob::GaussianMixture* prior,
                 storage::SessionStore* store, SessionManagerOptions options);

  // Queues `req` on session `id`, scheduling a drain task if none is in
  // flight. Returns the error a submit must surface immediately (unknown
  // session, ended, full queue, shutdown) or OK once queued.
  Status Enqueue(SessionId id, SessionRequest req);

  // Drains exactly one request of session `id` on a pool worker, then
  // reschedules itself while the queue is non-empty.
  void DrainOne(SessionId id);

  // Ensures `s.rec` is resident, evicting LRU idle sessions while the
  // hydrated set is at capacity. Called from a drain task with s.busy set;
  // takes and releases `lock` (which must be held on entry and is held
  // again on return).
  Status EnsureHydrated(std::unique_lock<std::mutex>& lock, SessionState& s);

  // Checkpoints `victim` (skipped when clean) and drops its recommender.
  // `lock` held on entry and return; `victim.busy` must already be claimed
  // by the caller.
  Status EvictLocked(std::unique_lock<std::mutex>& lock,
                     SessionState& victim);

  // One checkpoint attempt plus up to store_retry_limit backed-off retries.
  // Runs off mu_ (takes store_mu_ per attempt); the caller folds the error
  // and retry counts into the store_errors/store_retries registry counters.
  struct RetryOutcome {
    Status status;
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
  };
  RetryOutcome CheckpointWithRetry(recsys::PackageRecommender& rec,
                                   SessionId id);

  // Body of the background writeback thread (writeback_interval_ms > 0):
  // each tick checkpoints every idle dirty resident session.
  void WritebackLoop();

  // Intrusive-list maintenance, mu_ held. Append puts `s` at the tail
  // (most recently used); the head is always the next eviction victim.
  void LruAppend(SessionState& s);
  void LruUnlink(SessionState& s);

  // Registry handles backing both the Prometheus export and the public
  // stats() accessor (the counters ARE the stats — there is no second
  // ledger to drift from). Labeled mgr="N" with a process-unique manager
  // id so sequentially constructed managers never share series.
  struct ServingMetrics {
    obs::Gauge* sessions = nullptr;
    obs::Gauge* hydrated = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* hydrations = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* store_errors = nullptr;
    obs::Counter* store_retries = nullptr;
    obs::Counter* degraded_hydrations = nullptr;
    obs::Counter* writebacks = nullptr;
    obs::Counter* clean_drops = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* execute = nullptr;
  };

  const model::PackageEvaluator* evaluator_;
  const prob::GaussianMixture* prior_;
  storage::SessionStore* store_;
  SessionManagerOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  // Raw alias of owned_pool_ that stays valid while the pool's destructor
  // drains: in-flight drain tasks resubmit through this pointer after the
  // destructor has already moved the unique_ptr aside (a unique_ptr::reset
  // nulls its pointer *before* running ~ThreadPool, so tasks racing the
  // drain must not read the owner).
  ThreadPool* pool_ = nullptr;

  mutable std::mutex mu_;
  // Signaled whenever a session stops being busy or a hydration slot frees,
  // waking drain tasks waiting to hydrate.
  std::condition_variable slot_cv_;
  std::unordered_map<SessionId, std::unique_ptr<SessionState>> sessions_;
  std::size_t hydrated_count_ = 0;
  // Idle-resident sessions in recency order: head = least recently used.
  // SessionState addresses are stable (unique_ptr-owned, kept for the
  // manager's lifetime), so raw links are safe.
  SessionState* lru_head_ = nullptr;
  SessionState* lru_tail_ = nullptr;
  bool shutting_down_ = false;
  ServingMetrics metrics_;
  // Non-null iff options_.trace_sample_every > 0.
  std::unique_ptr<obs::Tracer> tracer_;

  // Wakes WritebackLoop between ticks (and for shutdown). Joined in the
  // destructor before the pool drains.
  std::condition_variable writeback_cv_;
  std::thread writeback_thread_;

  // SessionStore calls are not thread-safe; every Checkpoint/Restore/Flush
  // across all sessions serializes here. Never held while holding or
  // waiting on mu_/slot_cv_ (always mu_ → release → store_mu_), so the two
  // locks cannot deadlock. Group commit for eviction bursts is the
  // storage-engine follow-up (ROADMAP item 2).
  std::mutex store_mu_;
};

}  // namespace topkpkg::serving

#endif  // TOPKPKG_SERVING_SESSION_MANAGER_H_
