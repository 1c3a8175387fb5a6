// SessionManager contracts: evict→hydrate cycles are invisible (bit-identical
// RoundLogs to an always-resident — and to a bare, manager-free — session),
// requests to one session stay strictly ordered while distinct sessions
// progress concurrently, backpressure rejects with ResourceExhausted, and
// construction rejects invalid configuration with typed errors.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/data/generators.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/serving/session_manager.h"
#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/fault_env.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::serving {
namespace {

std::string TempStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "topkpkg_serving_" + name + "_" +
                     std::to_string(::getpid()) + ".tkps";
  std::filesystem::remove_all(path);
  return path;
}

// Canonical bytes of a round sequence: everything the recommender computed,
// with only the wall-clock fields (legitimately run-dependent) zeroed.
std::string Canon(std::vector<recsys::RoundLog> logs) {
  for (recsys::RoundLog& log : logs) {
    log.maintain_seconds = 0.0;
    log.sample_seconds = 0.0;
    log.rank_seconds = 0.0;
    log.sampling_stats.seconds = 0.0;
  }
  return storage::EncodeRoundHistory(logs);
}

class SessionManagerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(
        std::move(data::GenerateUniform(40, 3, 7)).value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg,min")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 3);
    Rng rng(8);
    prior_ = std::make_unique<prob::GaussianMixture>(
        prob::GaussianMixture::Random(3, 2, 0.5, rng));
  }

  recsys::RecommenderOptions RecOptions() const {
    recsys::RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 60;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    return opts;
  }

  SessionManagerOptions ManagerOptions(std::size_t max_hydrated,
                                       std::size_t workers = 2) const {
    SessionManagerOptions opts;
    opts.recommender = RecOptions();
    opts.max_hydrated_sessions = max_hydrated;
    opts.num_workers = workers;
    return opts;
  }

  // The ground truth nothing in serving may perturb: a bare recommender run
  // without any SessionManager, store, or shared pool.
  std::vector<recsys::RoundLog> BareRounds(std::uint64_t seed,
                                           const recsys::SimulatedUser& user,
                                           int rounds) const {
    auto rec = recsys::PackageRecommender::Create(evaluator_.get(),
                                                  prior_.get(), RecOptions(),
                                                  seed);
    EXPECT_TRUE(rec.ok()) << rec.status();
    std::vector<recsys::RoundLog> logs;
    for (int i = 0; i < rounds; ++i) {
      auto log = (*rec)->RunRound(user);
      EXPECT_TRUE(log.ok()) << log.status();
      logs.push_back(*log);
    }
    return logs;
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;
};

// Three interleaved sessions served through an LRU of capacity 1 — every
// single request hydrates from the store and evicts a neighbor — must emit
// exactly the RoundLogs of (a) a capacity-8 manager that never evicts and
// (b) bare manager-free recommenders.
TEST_F(SessionManagerFixture, EvictHydrateCyclesAreBitIdentical) {
  const std::uint64_t seeds[] = {11, 77, 123};
  const recsys::SimulatedUser users[] = {
      recsys::SimulatedUser({0.8, 0.4, -0.2}),
      recsys::SimulatedUser({-0.3, 0.9, 0.1}),
      recsys::SimulatedUser({0.1, -0.6, 0.7})};
  constexpr int kRounds = 4;

  std::vector<std::string> want;
  for (int s = 0; s < 3; ++s) {
    want.push_back(Canon(BareRounds(seeds[s], users[s], kRounds)));
  }

  for (std::size_t capacity : {std::size_t{1}, std::size_t{8}}) {
    const std::string path =
        TempStorePath("identity_cap" + std::to_string(capacity));
    auto store = storage::SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                          &*store, ManagerOptions(capacity));
    ASSERT_TRUE(manager.ok()) << manager.status();

    std::vector<SessionHandle> handles;
    for (int s = 0; s < 3; ++s) {
      auto handle = (*manager)->StartSession(static_cast<SessionId>(s + 1),
                                             seeds[s]);
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*handle);
    }

    // Round-robin across sessions so a capacity-1 LRU thrashes maximally:
    // every feedback must restore its session and checkpoint another. At
    // capacity 1 each feedback is awaited before the next is submitted —
    // with a round's three in flight together, workers may run them in any
    // order, and a session served last in one round and first in the next
    // would still be resident. Capacity 8 keeps them concurrent.
    std::vector<std::vector<recsys::RoundLog>> got(3);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::future<Result<recsys::RoundLog>>> futures;
      for (int s = 0; s < 3; ++s) {
        futures.push_back(handles[static_cast<std::size_t>(s)].Feedback(
            &users[s]));
        if (capacity == 1) futures.back().wait();
      }
      for (int s = 0; s < 3; ++s) {
        auto log = futures[static_cast<std::size_t>(s)].get();
        ASSERT_TRUE(log.ok()) << log.status();
        got[static_cast<std::size_t>(s)].push_back(*log);
      }
    }

    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(Canon(got[static_cast<std::size_t>(s)]),
                want[static_cast<std::size_t>(s)])
          << "session " << s << " capacity " << capacity;
    }

    const SessionManager::Stats stats = (*manager)->stats();
    if (capacity == 1) {
      // 3 sessions × 4 rounds through one slot: all but the very first
      // request found its session cold.
      EXPECT_EQ(stats.hydrations, 12u);
      EXPECT_EQ(stats.evictions, 11u);
      EXPECT_EQ(stats.hydrated, 1u);
    } else {
      EXPECT_EQ(stats.hydrations, 3u);  // One per session, never again.
      EXPECT_EQ(stats.evictions, 0u);
      EXPECT_EQ(stats.hydrated, 3u);
    }
    EXPECT_EQ(stats.completed, 12u);
    EXPECT_EQ(stats.rejected, 0u);
  }
}

// Fire a session's whole request stream without awaiting anything, across
// several sessions at once: per-session results must come out in submission
// order (same bytes as the serial reference), while the sessions share the
// pool concurrently.
TEST_F(SessionManagerFixture, ConcurrentSessionsStayOrderedPerSession) {
  constexpr int kSessions = 4;
  constexpr int kRounds = 5;
  const std::string path = TempStorePath("ordering");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  auto manager =
      SessionManager::Create(evaluator_.get(), prior_.get(), &*store,
                             ManagerOptions(/*max_hydrated=*/2,
                                            /*workers=*/4));
  ASSERT_TRUE(manager.ok()) << manager.status();

  std::vector<recsys::SimulatedUser> users;
  std::vector<std::string> want;
  for (int s = 0; s < kSessions; ++s) {
    users.emplace_back(Vec{0.2 * s - 0.3, 0.5, -0.1 * s});
  }
  for (int s = 0; s < kSessions; ++s) {
    want.push_back(Canon(
        BareRounds(static_cast<std::uint64_t>(100 + s), users[
            static_cast<std::size_t>(s)], kRounds)));
  }

  // Submit everything up front — kRounds feedbacks plus a trailing GetTopK
  // per session — before collecting a single future.
  std::vector<std::vector<std::future<Result<recsys::RoundLog>>>> feedback(
      kSessions);
  std::vector<std::future<Result<TopKSnapshot>>> snapshots;
  for (int s = 0; s < kSessions; ++s) {
    auto handle = (*manager)->StartSession(
        static_cast<SessionId>(s + 1), static_cast<std::uint64_t>(100 + s));
    ASSERT_TRUE(handle.ok()) << handle.status();
    for (int round = 0; round < kRounds; ++round) {
      feedback[static_cast<std::size_t>(s)].push_back(
          handle->Feedback(&users[static_cast<std::size_t>(s)]));
    }
    snapshots.push_back(handle->GetTopK());
  }

  for (int s = 0; s < kSessions; ++s) {
    std::vector<recsys::RoundLog> got;
    for (auto& f : feedback[static_cast<std::size_t>(s)]) {
      auto log = f.get();
      ASSERT_TRUE(log.ok()) << log.status();
      got.push_back(*log);
    }
    // FIFO per session: the i-th future resolves to the i-th round of the
    // serial reference, so the concatenation matches byte for byte.
    EXPECT_EQ(Canon(got), want[static_cast<std::size_t>(s)]) << "session "
                                                             << s;
    // The GetTopK queued behind the feedbacks observed all of them.
    auto snap = snapshots[static_cast<std::size_t>(s)].get();
    ASSERT_TRUE(snap.ok()) << snap.status();
    EXPECT_EQ(snap->rounds_served, static_cast<std::size_t>(kRounds));
    EXPECT_EQ(snap->top_k.size(), 3u);
  }
  EXPECT_EQ((*manager)->stats().completed,
            static_cast<std::uint64_t>(kSessions * (kRounds + 1)));
}

TEST_F(SessionManagerFixture, BackpressureRejectsWhenSessionQueueIsFull) {
  const std::string path = TempStorePath("backpressure");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  SessionManagerOptions opts = ManagerOptions(/*max_hydrated=*/2,
                                              /*workers=*/1);
  opts.max_queued_requests_per_session = 2;
  // Hold the single worker hostage so nothing drains: the first package
  // filter call (made inside a round's search) blocks until released.
  std::promise<void> entered;
  std::future<void> worker_held = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> hold{true};
  opts.recommender.ranking.package_filter = [&](const model::Package&) {
    if (hold.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return true;
  };
  auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                        &*store, opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  auto handle = (*manager)->StartSession(1, 11);
  ASSERT_TRUE(handle.ok());
  auto hostage_session = (*manager)->StartSession(2, 12);
  ASSERT_TRUE(hostage_session.ok());

  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  auto hostage = hostage_session->Feedback(&user);
  worker_held.wait();
  auto first = handle->Feedback(&user);
  auto second = handle->GetTopK();
  auto rejected = handle->Feedback(&user);  // Queue holds 2: over capacity.
  auto status = rejected.get();
  EXPECT_EQ(status.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*manager)->stats().rejected, 1u);

  release.set_value();
  EXPECT_TRUE(hostage.get().ok());
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());  // The accepted requests still complete.
}

TEST_F(SessionManagerFixture, LifecycleUnknownEndedAndReopenedSessions) {
  const std::string path = TempStorePath("lifecycle");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                        &*store, ManagerOptions(2));
  ASSERT_TRUE(manager.ok()) << manager.status();
  recsys::SimulatedUser user({0.8, 0.4, -0.2});

  // Unknown sessions are NotFound, not implicitly created.
  EXPECT_EQ((*manager)->SubmitGetTopK(99).get().status().code(),
            StatusCode::kNotFound);

  auto handle = (*manager)->StartSession(1, 11);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->Feedback(&user).get().ok());
  ASSERT_TRUE(handle->Feedback(&user).get().ok());
  auto before_end = handle->GetTopK().get();
  ASSERT_TRUE(before_end.ok());

  // End checkpoints and drops the session; later submits fail, and a
  // feedback already queued behind the End fails the same way.
  auto end = handle->End();
  EXPECT_TRUE(end.get().ok());
  EXPECT_EQ(handle->Feedback(&user).get().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*manager)->stats().sessions, 0u);
  EXPECT_EQ((*manager)->stats().hydrated, 0u);

  // Re-opening resumes from the checkpoint: same top-k, fresh serving
  // counter, and the next feedback continues the old trajectory (survivor
  // reuse proves it restored rather than restarted).
  auto reopened = (*manager)->StartSession(1, 999);
  ASSERT_TRUE(reopened.ok());
  auto snap = reopened->GetTopK().get();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->top_k, before_end->top_k);
  EXPECT_EQ(snap->rounds_served, 0u);
  auto resumed = reopened->Feedback(&user).get();
  ASSERT_TRUE(resumed.ok());
  EXPECT_GT(resumed->samples_reused, 0u);
}

// Destroying the manager drains in-flight work and checkpoints every
// still-hydrated session, so a bare recommender can restore the full state
// from the store afterwards.
TEST_F(SessionManagerFixture, DestructorCheckpointsHydratedSessions) {
  const std::string path = TempStorePath("shutdown");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  {
    auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                          &*store, ManagerOptions(4));
    ASSERT_TRUE(manager.ok()) << manager.status();
    auto handle = (*manager)->StartSession(7, 11);
    ASSERT_TRUE(handle.ok());
    // Fire and forget: the destructor must complete these, not drop them.
    handle->Feedback(&user);
    handle->Feedback(&user);
  }
  auto restored = recsys::PackageRecommender::Create(
      evaluator_.get(), prior_.get(), RecOptions(), /*seed=*/0);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore(*store, 7).ok());
  EXPECT_EQ((*restored)->round_history().size(), 2u);
}

// A store outage must not drop a session or fail its requests: the evictor
// retries the checkpoint with backoff, gives up, keeps the victim resident,
// and hydrates the incoming session *over* capacity. Once the store heals,
// eviction drains the degraded set back under the limit and every round
// survives a restore.
TEST_F(SessionManagerFixture, StoreOutageDegradesWithoutDroppingSessions) {
  const std::string path = TempStorePath("outage");
  storage::FaultInjectingEnv env(storage::Env::Default());
  storage::SessionStoreOptions sopts;
  sopts.env = &env;
  auto store = storage::SessionStore::Open(path, sopts);
  ASSERT_TRUE(store.ok()) << store.status();

  SessionManagerOptions opts = ManagerOptions(/*max_hydrated=*/1);
  opts.store_retry_limit = 2;
  opts.store_retry_backoff_ms = 1;  // Keep the backoff sweep fast.
  auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                        &*store, opts);
  ASSERT_TRUE(manager.ok()) << manager.status();

  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  auto first = (*manager)->StartSession(1, 11);
  auto second = (*manager)->StartSession(2, 77);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(first->Feedback(&user).get().ok());  // Session 1 is dirty.

  env.set_fail_writes(true);
  // Hydrating session 2 wants to evict session 1, whose checkpoint cannot
  // land. The request must still complete (degraded, over capacity).
  ASSERT_TRUE(second->Feedback(&user).get().ok());
  {
    const SessionManager::Stats stats = (*manager)->stats();
    EXPECT_EQ(stats.hydrated, 2u);  // Over the capacity of 1.
    EXPECT_GE(stats.degraded_hydrations, 1u);
    EXPECT_GE(stats.store_errors, 3u);   // 1 attempt + 2 retries, minimum.
    EXPECT_GE(stats.store_retries, 2u);
    EXPECT_EQ(stats.evictions, 0u);      // Nobody was dropped.
  }
  // Both sessions keep serving through the outage.
  ASSERT_TRUE(first->GetTopK().get().ok());
  ASSERT_TRUE(second->GetTopK().get().ok());

  env.set_fail_writes(false);
  // Healed: ending both sessions checkpoints cleanly, and each restores
  // with every round it served — nothing was lost to the outage.
  ASSERT_TRUE(first->End().get().ok());
  ASSERT_TRUE(second->End().get().ok());
  EXPECT_EQ((*manager)->stats().hydrated, 0u);
  for (const SessionId id : {SessionId{1}, SessionId{2}}) {
    auto restored = recsys::PackageRecommender::Create(
        evaluator_.get(), prior_.get(), RecOptions(), /*seed=*/0);
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE((*restored)->Restore(*store, id).ok());
    EXPECT_EQ((*restored)->round_history().size(), 1u) << "session " << id;
  }
}

// The background writeback thread checkpoints idle dirty sessions, so the
// eventual eviction is a free drop (clean_drops) instead of a synchronous
// store write on the request path.
TEST_F(SessionManagerFixture, BackgroundWritebackMakesEvictionsCleanDrops) {
  const std::string path = TempStorePath("writeback");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  SessionManagerOptions opts = ManagerOptions(/*max_hydrated=*/1);
  opts.writeback_interval_ms = 2;
  SessionManager::Stats stats;
  {
    auto manager = SessionManager::Create(evaluator_.get(), prior_.get(),
                                          &*store, opts);
    ASSERT_TRUE(manager.ok()) << manager.status();

    recsys::SimulatedUser user({0.8, 0.4, -0.2});
    auto handle = (*manager)->StartSession(1, 11);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(handle->Feedback(&user).get().ok());

    // The session is now idle and dirty; the writeback thread must pick it
    // up within a few ticks.
    for (int i = 0; i < 500 && (*manager)->stats().writebacks == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE((*manager)->stats().writebacks, 1u);

    // Evicting the now-clean session costs no store write.
    auto other = (*manager)->StartSession(2, 77);
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(other->Feedback(&user).get().ok());
    stats = (*manager)->stats();
  }  // Destroyed first: the store is single-owner, and the writeback
     // thread must not race the bare Restore below.
  EXPECT_GE(stats.clean_drops, 1u);
  EXPECT_EQ(stats.evictions, stats.clean_drops);

  // The write-back checkpoint is the real one: session 1 was clean-dropped,
  // so only the writeback thread ever wrote its round to the store.
  auto restored = recsys::PackageRecommender::Create(
      evaluator_.get(), prior_.get(), RecOptions(), /*seed=*/0);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Restore(*store, 1).ok());
  EXPECT_EQ((*restored)->round_history().size(), 1u);
}

TEST_F(SessionManagerFixture, CreateRejectsInvalidConfiguration) {
  const std::string path = TempStorePath("validate");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();

  auto no_store = SessionManager::Create(evaluator_.get(), prior_.get(),
                                         nullptr, ManagerOptions(2));
  EXPECT_EQ(no_store.status().code(), StatusCode::kInvalidArgument);

  auto zero_lru = SessionManager::Create(evaluator_.get(), prior_.get(),
                                         &*store, ManagerOptions(0));
  EXPECT_EQ(zero_lru.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero_lru.status().message().find("max_hydrated_sessions"),
            std::string::npos);

  SessionManagerOptions zero_queue = ManagerOptions(2);
  zero_queue.max_queued_requests_per_session = 0;
  EXPECT_EQ(SessionManager::Create(evaluator_.get(), prior_.get(), &*store,
                                   zero_queue)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A bad recommender template fails Create with the recommender
  // validator's own typed error, not at first hydration.
  SessionManagerOptions bad_template = ManagerOptions(2);
  bad_template.recommender.num_samples = 0;
  auto bad = SessionManager::Create(evaluator_.get(), prior_.get(), &*store,
                                    bad_template);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("num_samples"), std::string::npos);
}

}  // namespace
}  // namespace topkpkg::serving
