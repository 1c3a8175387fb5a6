#include "topkpkg/serving/session_manager.h"

#include <chrono>
#include <utility>

#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::serving {

namespace {

// Resolves the one armed promise of `req` with an error. Safe to call
// exactly once per request, off the manager lock.
void FailRequest(SessionRequest& req, const Status& st) {
  switch (req.kind) {
    case SessionRequest::Kind::kFeedback:
      req.feedback_result.set_value(st);
      return;
    case SessionRequest::Kind::kGetTopK:
      req.topk_result.set_value(st);
      return;
    case SessionRequest::Kind::kEndSession:
      req.end_result.set_value(st);
      return;
  }
}

}  // namespace

std::future<Result<recsys::RoundLog>> SessionHandle::Feedback(
    const recsys::SimulatedUser* user) {
  return manager_->SubmitFeedback(id_, user);
}

std::future<Result<TopKSnapshot>> SessionHandle::GetTopK() {
  return manager_->SubmitGetTopK(id_);
}

std::future<Status> SessionHandle::End() {
  return manager_->SubmitEndSession(id_);
}

SessionManager::SessionManager(const model::PackageEvaluator* evaluator,
                               const prob::GaussianMixture* prior,
                               storage::SessionStore* store,
                               SessionManagerOptions options)
    : evaluator_(evaluator),
      prior_(prior),
      store_(store),
      options_(std::move(options)) {
  const std::size_t workers = options_.num_workers == 0
                                  ? ThreadPool::DefaultThreadCount()
                                  : options_.num_workers;
  owned_pool_ = std::make_unique<ThreadPool>(workers);
  pool_ = owned_pool_.get();

  // Registry handles, labeled with a process-unique manager id so each
  // manager (tests construct them back to back) gets fresh series and
  // stats() stays exactly per-manager.
  static std::atomic<std::uint64_t> next_mgr_id{0};
  const std::string mgr =
      "mgr=\"" +
      std::to_string(next_mgr_id.fetch_add(1, std::memory_order_relaxed)) +
      "\"";
  auto& reg = obs::MetricsRegistry::Global();
  metrics_.sessions = reg.GetGauge("topkpkg_serving_sessions",
                                   "Registered live (non-ended) sessions",
                                   mgr);
  metrics_.hydrated = reg.GetGauge("topkpkg_serving_hydrated",
                                   "Recommenders resident in memory", mgr);
  metrics_.queue_depth = reg.GetGauge(
      "topkpkg_serving_queue_depth",
      "Requests queued across all sessions, not yet executing", mgr);
  metrics_.hydrations = reg.GetCounter("topkpkg_serving_hydrations_total",
                                       "Cold-to-resident transitions", mgr);
  metrics_.evictions = reg.GetCounter(
      "topkpkg_serving_evictions_total",
      "Checkpoint-then-drop (or clean-drop) LRU evictions", mgr);
  metrics_.completed = reg.GetCounter(
      "topkpkg_serving_completed_total",
      "Requests whose promise was fulfilled", mgr);
  metrics_.rejected = reg.GetCounter(
      "topkpkg_serving_rejected_total",
      "Submits refused (backpressure, unknown session, shutdown)", mgr);
  metrics_.store_errors = reg.GetCounter(
      "topkpkg_serving_store_errors_total",
      "Failed store writes, counting every attempt", mgr);
  metrics_.store_retries = reg.GetCounter(
      "topkpkg_serving_store_retries_total",
      "Backed-off checkpoint re-attempts", mgr);
  metrics_.degraded_hydrations = reg.GetCounter(
      "topkpkg_serving_degraded_hydrations_total",
      "Hydrations admitted over capacity because no victim could checkpoint",
      mgr);
  metrics_.writebacks = reg.GetCounter(
      "topkpkg_serving_writebacks_total",
      "Background checkpoints of idle dirty sessions", mgr);
  metrics_.clean_drops = reg.GetCounter(
      "topkpkg_serving_clean_drops_total",
      "Evictions that needed no store write", mgr);
  metrics_.queue_wait = reg.GetHistogram(
      "topkpkg_serving_queue_wait_seconds",
      "Time a request spent queued before a worker picked it up", mgr);
  metrics_.execute = reg.GetHistogram(
      "topkpkg_serving_execute_seconds",
      "Time a worker spent executing a request (excludes queue wait)", mgr);

  if (options_.trace_sample_every > 0) {
    tracer_ = std::make_unique<obs::Tracer>(options_.trace_sample_every,
                                            options_.trace_jsonl_path);
  }
  if (options_.writeback_interval_ms > 0) {
    writeback_thread_ = std::thread([this]() { WritebackLoop(); });
  }
}

Result<std::unique_ptr<SessionManager>> SessionManager::Create(
    const model::PackageEvaluator* evaluator,
    const prob::GaussianMixture* prior, storage::SessionStore* store,
    SessionManagerOptions options) {
  if (store == nullptr) {
    return Status::InvalidArgument(
        "SessionManager::Create: store must not be null (cold sessions "
        "live only in the store)");
  }
  if (options.max_hydrated_sessions == 0) {
    return Status::InvalidArgument(
        "SessionManagerOptions.max_hydrated_sessions: at least one session "
        "must be able to reside in memory");
  }
  if (options.max_queued_requests_per_session == 0) {
    return Status::InvalidArgument(
        "SessionManagerOptions.max_queued_requests_per_session: a queue of "
        "0 would reject every request");
  }
  // Validate the recommender template once, up front, with the same
  // validator every hydration uses — a bad template must fail Create, not
  // the first request.
  {
    Result<std::unique_ptr<recsys::PackageRecommender>> probe =
        recsys::PackageRecommender::Create(evaluator, prior,
                                           options.recommender, /*seed=*/0);
    if (!probe.ok()) return probe.status();
  }
  return std::unique_ptr<SessionManager>(
      new SessionManager(evaluator, prior, store, std::move(options)));
}

SessionManager::~SessionManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;  // Rejects new submits; queued work still runs.
  }
  writeback_cv_.notify_all();
  if (writeback_thread_.joinable()) writeback_thread_.join();
  // ThreadPool's destructor drains every queued task, so each pending
  // request resolves its future before the pool joins. Tasks still running
  // during the drain resubmit through the raw pool_ alias, which remains
  // valid until ~ThreadPool returns.
  owned_pool_.reset();
  // Persist whatever is still resident and dirty. Destruction cannot report
  // errors; sessions that fail to checkpoint keep their previous durable
  // state (Checkpoint is crash-atomic, so the store is never left torn).
  std::lock_guard<std::mutex> store_lock(store_mu_);
  for (auto& [id, s] : sessions_) {
    if (s->rec != nullptr) {
      if (s->dirty) {
        s->rec->Checkpoint(*store_, id).ok();  // Best effort by design.
      }
      s->rec.reset();
    }
  }
}

Result<SessionHandle> SessionManager::StartSession(SessionId id,
                                                   std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    return Status::FailedPrecondition("SessionManager: shutting down");
  }
  auto [it, inserted] = sessions_.try_emplace(id);
  if (inserted) {
    it->second = std::make_unique<SessionState>();
    it->second->id = id;
    it->second->seed = seed;
    metrics_.sessions->Add(1.0);
  } else if (it->second->ended) {
    // Re-open a previously ended session: it continues from its checkpoint
    // in the store (the seed only matters if no checkpoint exists).
    it->second->ended = false;
    it->second->seed = seed;
    it->second->rounds_served = 0;  // Serving-layer counter, not state.
    metrics_.sessions->Add(1.0);
  }
  return SessionHandle(this, id);
}

std::future<Result<recsys::RoundLog>> SessionManager::SubmitFeedback(
    SessionId id, const recsys::SimulatedUser* user) {
  SessionRequest req;
  req.kind = SessionRequest::Kind::kFeedback;
  req.user = user;
  std::future<Result<recsys::RoundLog>> future =
      req.feedback_result.get_future();
  if (user == nullptr) {
    req.feedback_result.set_value(Status::InvalidArgument(
        "SubmitFeedback: user must not be null"));
    return future;
  }
  Enqueue(id, std::move(req));
  return future;
}

std::future<Result<TopKSnapshot>> SessionManager::SubmitGetTopK(
    SessionId id) {
  SessionRequest req;
  req.kind = SessionRequest::Kind::kGetTopK;
  std::future<Result<TopKSnapshot>> future = req.topk_result.get_future();
  Enqueue(id, std::move(req));
  return future;
}

std::future<Status> SessionManager::SubmitEndSession(SessionId id) {
  SessionRequest req;
  req.kind = SessionRequest::Kind::kEndSession;
  std::future<Status> future = req.end_result.get_future();
  Enqueue(id, std::move(req));
  return future;
}

Status SessionManager::Enqueue(SessionId id, SessionRequest req) {
  Status st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (shutting_down_) {
      st = Status::FailedPrecondition("SessionManager: shutting down");
    } else if (it == sessions_.end()) {
      st = Status::NotFound("unknown session " + std::to_string(id) +
                            " (StartSession first)");
    } else if (it->second->ended) {
      st = Status::FailedPrecondition("session " + std::to_string(id) +
                                      " has ended");
    } else if (it->second->queue.size() >=
               options_.max_queued_requests_per_session) {
      st = Status::ResourceExhausted(
          "session " + std::to_string(id) + " queue is full (" +
          std::to_string(options_.max_queued_requests_per_session) +
          " pending requests)");
    }
    if (st.ok()) {
      SessionState& s = *it->second;
      req.enqueued_at = std::chrono::steady_clock::now();
      metrics_.queue_depth->Add(1.0);
      if (tracer_ != nullptr) req.trace = tracer_->StartTrace();
      s.queue.push_back(std::move(req));
      if (!s.scheduled) {
        // At most one drain task per session ever exists; this is the
        // per-session serialization. Cross-session parallelism comes from
        // distinct sessions' drain tasks sharing the pool.
        s.scheduled = true;
        pool_->Submit([this, id]() { DrainOne(id); });
      }
      return Status::OK();
    }
    metrics_.rejected->Increment();
  }
  FailRequest(req, st);
  return st;
}

void SessionManager::LruAppend(SessionState& s) {
  if (s.in_lru) return;
  s.in_lru = true;
  s.lru_prev = lru_tail_;
  s.lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &s;
  } else {
    lru_head_ = &s;
  }
  lru_tail_ = &s;
}

void SessionManager::LruUnlink(SessionState& s) {
  if (!s.in_lru) return;
  s.in_lru = false;
  if (s.lru_prev != nullptr) {
    s.lru_prev->lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != nullptr) {
    s.lru_next->lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = nullptr;
  s.lru_next = nullptr;
}

SessionManager::RetryOutcome SessionManager::CheckpointWithRetry(
    recsys::PackageRecommender& rec, SessionId id) {
  RetryOutcome out;
  for (std::size_t attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> store_lock(store_mu_);
      out.status = rec.Checkpoint(*store_, id);
    }
    if (out.status.ok()) return out;
    ++out.errors;
    if (attempt >= options_.store_retry_limit) return out;
    ++out.retries;
    // Exponential backoff, slept while holding nothing: a transient store
    // hiccup heals without stalling other sessions' drains.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        options_.store_retry_backoff_ms << attempt));
  }
}

Status SessionManager::EvictLocked(std::unique_lock<std::mutex>& lock,
                                   SessionState& victim) {
  // A clean victim's state is already durable: drop it with no store I/O.
  if (!victim.dirty) {
    victim.rec.reset();
    --hydrated_count_;
    metrics_.hydrated->Set(static_cast<double>(hydrated_count_));
    metrics_.evictions->Increment();
    metrics_.clean_drops->Increment();
    return Status::OK();
  }
  recsys::PackageRecommender* rec = victim.rec.get();
  const SessionId victim_id = victim.id;
  lock.unlock();
  RetryOutcome out = CheckpointWithRetry(*rec, victim_id);
  lock.lock();
  metrics_.store_errors->Increment(out.errors);
  metrics_.store_retries->Increment(out.retries);
  // When every retry failed the victim stays resident — dropping it would
  // lose rounds the store never saw. The caller decides whether to degrade
  // (hydrate over capacity) or surface the error.
  if (!out.status.ok()) return out.status;
  victim.dirty = false;
  victim.rec.reset();
  --hydrated_count_;
  metrics_.hydrated->Set(static_cast<double>(hydrated_count_));
  metrics_.evictions->Increment();
  return Status::OK();
}

Status SessionManager::EnsureHydrated(std::unique_lock<std::mutex>& lock,
                                      SessionState& s) {
  while (hydrated_count_ >= options_.max_hydrated_sessions) {
    // The LRU list holds exactly the idle resident sessions, head least
    // recently used — the victim is one pointer read, O(1) regardless of
    // how many sessions are resident.
    SessionState* victim = lru_head_;
    if (victim != nullptr) {
      victim->busy = true;
      LruUnlink(*victim);
      Status st = EvictLocked(lock, *victim);
      victim->busy = false;
      // A failed checkpoint leaves the victim resident and idle: relink it
      // at the MRU end so retries under persistent store failure rotate
      // through candidates instead of hammering one session.
      if (victim->rec != nullptr) LruAppend(*victim);
      slot_cv_.notify_all();
      if (!st.ok()) {
        // Store outage: no victim can leave. Serve degraded instead of
        // failing the request — hydrate over capacity and let future
        // evictions shrink the set once the store heals. A session is
        // never dropped and a request is never refused because the store
        // is down.
        metrics_.degraded_hydrations->Increment();
        break;
      }
      continue;  // Lock was held across the re-check: the slot is ours.
    }
    // Every resident session is mid-request. Each is owned by an actively
    // executing worker (busy tasks never wait on this cv), so one will
    // finish and notify; waiting here cannot deadlock.
    slot_cv_.wait(lock);
  }
  ++hydrated_count_;  // Reserve the slot before releasing the lock.
  metrics_.hydrated->Set(static_cast<double>(hydrated_count_));
  metrics_.hydrations->Increment();
  lock.unlock();

  Result<std::unique_ptr<recsys::PackageRecommender>> rec =
      recsys::PackageRecommender::Create(evaluator_, prior_,
                                         options_.recommender, s.seed);
  Status st = rec.ok() ? Status::OK() : rec.status();
  if (st.ok()) {
    std::lock_guard<std::mutex> store_lock(store_mu_);
    if (store_->Contains(s.id, storage::kKindRecommenderMeta)) {
      st = (*rec)->Restore(*store_, s.id);
    }
  }

  lock.lock();
  if (!st.ok()) {
    --hydrated_count_;
    metrics_.hydrated->Set(static_cast<double>(hydrated_count_));
    slot_cv_.notify_all();
    return st;
  }
  s.rec = std::move(*rec);
  return Status::OK();
}

void SessionManager::DrainOne(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  SessionState& s = *sessions_.at(id);
  // An evictor may hold this session (it was idle when chosen as victim,
  // then a request arrived and scheduled us). Wait for it to finish — the
  // evictor is actively checkpointing, never cv-waiting, so it always
  // releases. No other drain task can race us here (one per session).
  while (s.busy) slot_cv_.wait(lock);
  s.busy = true;
  LruUnlink(s);  // Busy sessions are never eviction victims.
  SessionRequest req = std::move(s.queue.front());
  s.queue.pop_front();
  metrics_.queue_depth->Add(-1.0);
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - req.enqueued_at;
  metrics_.queue_wait->Observe(waited.count());

  Status pre;
  if (s.ended) {
    // An End ahead of this request in the queue already completed.
    pre = Status::FailedPrecondition("session " + std::to_string(id) +
                                     " has ended");
  } else if (req.kind != SessionRequest::Kind::kEndSession &&
             s.rec == nullptr) {
    pre = EnsureHydrated(lock, s);
  }
  lock.unlock();

  // Execute off the lock: `busy` pins the session (eviction scans skip it,
  // and the single-drain-task invariant keeps every other request of this
  // session queued), so s.rec is exclusively ours here. Results are staged
  // and the promise fulfilled only after the bookkeeping below, which is
  // what makes the registry-backed stats() read-your-writes for a caller
  // who awaited its futures: every counter Increment (relaxed atomics on
  // the ServingMetrics handles) is sequenced before set_value, set_value
  // synchronizes with the caller's future::get, so the increments are
  // visible to any stats() call that follows the get.
  Result<recsys::RoundLog> feedback_out =
      Status::Internal("unset");  // Overwritten by the kFeedback branch.
  TopKSnapshot topk_out;
  Status end_out;
  if (pre.ok()) {
    // Bind the request's trace context to this worker for the execute
    // window: spans opened anywhere down the call chain (RunRound phases,
    // SearchBatch) nest under the root span. The execute histogram
    // measures the same window.
    obs::ScopedTraceBinding trace_binding(req.trace.get());
    const char* root_name =
        req.kind == SessionRequest::Kind::kFeedback
            ? "serve_feedback"
            : req.kind == SessionRequest::Kind::kGetTopK ? "serve_get_topk"
                                                         : "serve_end";
    obs::ScopedSpan root_span(root_name);
    obs::ScopedLatency execute_latency(metrics_.execute);
    switch (req.kind) {
      case SessionRequest::Kind::kFeedback: {
        feedback_out = s.rec->RunRound(*req.user);
        if (feedback_out.ok()) {
          ++s.rounds_served;
          s.dirty = true;  // The store no longer has this round.
        }
        break;
      }
      case SessionRequest::Kind::kGetTopK: {
        topk_out.top_k = s.rec->current_top_k();
        topk_out.rounds_served = s.rounds_served;
        break;
      }
      case SessionRequest::Kind::kEndSession: {
        RetryOutcome out;
        if (s.rec != nullptr && s.dirty) {
          out = CheckpointWithRetry(*s.rec, id);
          end_out = out.status;
        }
        lock.lock();
        metrics_.store_errors->Increment(out.errors);
        metrics_.store_retries->Increment(out.retries);
        if (end_out.ok()) {
          if (s.rec != nullptr) {
            s.dirty = false;
            s.rec.reset();
            --hydrated_count_;
            metrics_.hydrated->Set(static_cast<double>(hydrated_count_));
          }
          s.ended = true;
          metrics_.sessions->Add(-1.0);
        }
        lock.unlock();
        break;
      }
    }
  }
  if (tracer_ != nullptr) tracer_->FinishTrace(std::move(req.trace));

  lock.lock();
  s.busy = false;
  // The request just served makes this session the most recently used; an
  // ended or still-cold session is not an eviction candidate.
  if (s.rec != nullptr && !s.ended) LruAppend(s);
  metrics_.completed->Increment();
  if (!s.queue.empty()) {
    pool_->Submit([this, id]() { DrainOne(id); });
  } else {
    s.scheduled = false;
  }
  slot_cv_.notify_all();
  lock.unlock();

  if (!pre.ok()) {
    FailRequest(req, pre);
    return;
  }
  switch (req.kind) {
    case SessionRequest::Kind::kFeedback:
      req.feedback_result.set_value(std::move(feedback_out));
      break;
    case SessionRequest::Kind::kGetTopK:
      req.topk_result.set_value(std::move(topk_out));
      break;
    case SessionRequest::Kind::kEndSession:
      req.end_result.set_value(end_out);
      break;
  }
}

void SessionManager::WritebackLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    writeback_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.writeback_interval_ms));
    if (shutting_down_) return;
    // Drain an overdue group-commit window first (a trickle of puts below
    // group_commit_puts otherwise sits unsynced until the next burst).
    // MaybeFlush is a cheap deadline check when the store's flush timer is
    // off or nothing is pending.
    {
      lock.unlock();
      Status flush_st;
      {
        std::lock_guard<std::mutex> store_lock(store_mu_);
        flush_st = store_->MaybeFlush();
      }
      lock.lock();
      if (!flush_st.ok()) metrics_.store_errors->Increment();
      if (shutting_down_) return;
    }
    // Collect candidates first: processing unlocks mu_, and StartSession
    // may rehash sessions_ in that window, so iterators can't be held.
    std::vector<SessionId> candidates;
    for (const auto& [id, s] : sessions_) {
      if (s->rec != nullptr && !s->busy && !s->scheduled && !s->ended &&
          s->dirty) {
        candidates.push_back(id);
      }
    }
    for (const SessionId id : candidates) {
      if (shutting_down_) return;
      SessionState& s = *sessions_.at(id);
      // Re-check under the lock: a drain task may have claimed the session
      // since the scan. Skip it — its own eviction will checkpoint later.
      if (s.rec == nullptr || s.busy || s.scheduled || s.ended || !s.dirty) {
        continue;
      }
      s.busy = true;  // Pins s.rec exactly like an evictor does.
      LruUnlink(s);
      recsys::PackageRecommender* rec = s.rec.get();
      lock.unlock();
      Status st;
      {
        std::lock_guard<std::mutex> store_lock(store_mu_);
        st = rec->Checkpoint(*store_, id);
      }
      lock.lock();
      s.busy = false;
      if (st.ok()) {
        s.dirty = false;
        metrics_.writebacks->Increment();
      } else {
        // Leave it dirty; eviction (with retries) remains the backstop.
        metrics_.store_errors->Increment();
      }
      if (s.rec != nullptr && !s.ended) LruAppend(s);
      slot_cv_.notify_all();
    }
  }
}

SessionManager::Stats SessionManager::stats() const {
  // Assembled straight from the registry handles — the same series a
  // Prometheus scrape reads, so the two surfaces cannot disagree. mu_ only
  // guards hydrated_count_; the handles are relaxed atomics.
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.sessions = static_cast<std::size_t>(metrics_.sessions->value());
  out.hydrated = hydrated_count_;
  out.hydrations = metrics_.hydrations->value();
  out.evictions = metrics_.evictions->value();
  out.completed = metrics_.completed->value();
  out.rejected = metrics_.rejected->value();
  out.store_errors = metrics_.store_errors->value();
  out.store_retries = metrics_.store_retries->value();
  out.degraded_hydrations = metrics_.degraded_hydrations->value();
  out.writebacks = metrics_.writebacks->value();
  out.clean_drops = metrics_.clean_drops->value();
  return out;
}

}  // namespace topkpkg::serving
