// Checkpoint → kill → Restore → RunRound round trips: a restored session
// must produce bit-identical recommendations to the uninterrupted one AND
// resume *incrementally* — same SampleIds, warm top-list cache, survivors
// reused — instead of paying a cold full redraw.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/serde.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::recsys {
namespace {

std::string TempStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "topkpkg_ckpt_" + name + "_" +
                     std::to_string(::getpid()) + ".tkps";
  std::filesystem::remove_all(path);
  return path;
}

class CheckpointFixture : public ::testing::Test {
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

  RecommenderOptions DefaultOptions() const {
    RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 60;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    return opts;
  }

  static void ExpectSameRound(const RoundLog& a, const RoundLog& b) {
    EXPECT_EQ(a.top_k, b.top_k);
    EXPECT_EQ(a.presented, b.presented);
    EXPECT_EQ(a.clicked, b.clicked);
    EXPECT_EQ(a.top_k_overlap, b.top_k_overlap);
    EXPECT_EQ(a.samples_reused, b.samples_reused);
    EXPECT_EQ(a.samples_resampled, b.samples_resampled);
    EXPECT_EQ(a.searches_skipped, b.searches_skipped);
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;

  std::unique_ptr<PackageRecommender> NewRecommender(RecommenderOptions opts,
                                                     uint64_t seed) const {
    return std::move(PackageRecommender::Create(evaluator_.get(), prior_.get(),
                                                std::move(opts), seed))
        .value();
  }
};

TEST_F(CheckpointFixture, RestoredSessionResumesBitIdenticallyAndWarm) {
  const std::string path = TempStorePath("roundtrip");
  SimulatedUser user({0.8, 0.4, -0.2});

  // The uninterrupted session: 3 rounds, checkpoint, 2 more rounds.
  auto original = NewRecommender(DefaultOptions(), /*seed=*/11);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(original->RunRound(user).ok());
  }
  {
    auto store = storage::SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(original->Checkpoint(*store, /*session_id=*/42).ok());
    // `store` closes here — the "kill".
  }
  std::set<sampling::SampleId> checkpoint_ids;
  for (std::size_t i = 0; i < original->pool().size(); ++i) {
    checkpoint_ids.insert(original->pool().id(i));
  }
  std::vector<RoundLog> want;
  for (int round = 0; round < 2; ++round) {
    auto log = original->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    want.push_back(*log);
  }

  // The restored session: fresh store handle, fresh recommender (same
  // construction), Restore, same 2 rounds.
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  // The seed is irrelevant: Restore overwrites the RNG stream position.
  auto restored = NewRecommender(DefaultOptions(), /*seed=*/999);
  ASSERT_TRUE(restored->Restore(*store, 42).ok());

  // Restored identity: the full checkpoint-time pool and session history.
  EXPECT_EQ(restored->pool().size(), DefaultOptions().num_samples);
  EXPECT_EQ(restored->current_top_k().size(), 3u);
  EXPECT_EQ(restored->round_history().size(), 3u);

  for (int round = 0; round < 2; ++round) {
    auto log = restored->RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    ExpectSameRound(want[static_cast<std::size_t>(round)], *log);
    if (round == 0) {
      // The resumed round is incremental, not a cold redraw: survivors are
      // reused and cached top lists are served.
      EXPECT_GT(log->samples_reused, 0u);
      EXPECT_GT(log->searches_skipped, 0u);
      EXPECT_LT(log->samples_resampled, restored->pool().size());
    }
  }
  // Both sessions end in the same place. Sample *content* is bit-identical
  // throughout; identities match exactly for checkpoint-time survivors
  // (fresh post-restore draws mint new ids — in a real restart they would
  // continue right after the restored maximum, but inside one test process
  // the shared mint counter has already advanced past the original run's).
  EXPECT_EQ(original->current_top_k(), restored->current_top_k());
  ASSERT_EQ(original->pool().size(), restored->pool().size());
  for (std::size_t i = 0; i < original->pool().size(); ++i) {
    if (checkpoint_ids.count(original->pool().id(i)) > 0) {
      EXPECT_EQ(original->pool().id(i), restored->pool().id(i));
    }
    EXPECT_EQ(original->pool().sample(i).w, restored->pool().sample(i).w);
    EXPECT_EQ(original->pool().sample(i).weight,
              restored->pool().sample(i).weight);
  }
}

TEST_F(CheckpointFixture, SampleIdsSurviveRestartWithoutCollisions) {
  const std::string path = TempStorePath("mintfloor");
  SimulatedUser user({0.8, 0.4, -0.2});
  auto original = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(original->RunRound(user).ok());
  std::vector<sampling::SampleId> ids;
  for (std::size_t i = 0; i < original->pool().size(); ++i) {
    ids.push_back(original->pool().id(i));
  }
  {
    auto store = storage::SessionStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(original->Checkpoint(*store, 1).ok());
  }
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto restored = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(restored->Restore(*store, 1).ok());
  sampling::SampleId max_restored = 0;
  ASSERT_EQ(restored->pool().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(restored->pool().id(i), ids[i]);
    max_restored = std::max(max_restored, ids[i]);
  }
  // Ids minted after the restore can never collide with restored ones.
  sampling::SamplePool fresh_pool;
  fresh_pool.Append({sampling::WeightedSample{{0.0, 0.0, 0.0}, 1.0, 0}});
  EXPECT_GT(fresh_pool.id(0), max_restored);
}

TEST_F(CheckpointFixture, RestoreRejectsMismatchedConfiguration) {
  const std::string path = TempStorePath("config");
  SimulatedUser user({0.8, 0.4, -0.2});
  auto original = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(original->RunRound(user).ok());
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(original->Checkpoint(*store, 7).ok());

  RecommenderOptions other = DefaultOptions();
  other.num_samples = 61;  // Any semantic knob disagreeing must reject.
  auto mismatched = NewRecommender(other, 11);
  EXPECT_EQ(mismatched->Restore(*store, 7).code(),
            StatusCode::kInvalidArgument);
  // And an absent session is NotFound, not a crash.
  auto fresh = NewRecommender(DefaultOptions(), 11);
  EXPECT_EQ(fresh->Restore(*store, 12345).code(), StatusCode::kNotFound);
}

TEST_F(CheckpointFixture, TornCheckpointFallsBackToPreviousGeneration) {
  const std::string path = TempStorePath("torn");
  SimulatedUser user({0.8, 0.4, -0.2});
  auto original = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(original->RunRound(user).ok());
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(original->Checkpoint(*store, 7).ok());  // seq 1, odd slot.
  ASSERT_TRUE(original->RunRound(user).ok());
  ASSERT_TRUE(original->Checkpoint(*store, 7).ok());  // seq 2, even slot.
  auto want = original->RunRound(user);
  ASSERT_TRUE(want.ok());

  // Simulate a crash in the middle of checkpoint #3: some seq-3 records
  // land in the odd slot (the one generation 1 used), the meta record
  // never commits. The committed generation 2 lives in the even slot and
  // must restore untouched.
  ByteWriter wrap;
  wrap.PutU64(3);
  ASSERT_TRUE(store
                  ->Put(7, storage::GenSlotKind(storage::kKindSamplePool, 3),
                        wrap.bytes() +
                            storage::EncodeSamplePool(original->pool()))
                  .ok());
  auto restored = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(restored->Restore(*store, 7).ok());
  auto got = restored->RunRound(user);
  ASSERT_TRUE(got.ok());
  ExpectSameRound(*want, *got);

  // A wrong-sequence record in the *committed* slot is not a crash shape
  // the checkpoint protocol produces — that store is inconsistent and must
  // be refused.
  ByteWriter bad;
  bad.PutU64(99);
  ASSERT_TRUE(store
                  ->Put(7, storage::GenSlotKind(storage::kKindSamplePool, 2),
                        bad.bytes() +
                            storage::EncodeSamplePool(original->pool()))
                  .ok());
  auto refused = NewRecommender(DefaultOptions(), 11);
  EXPECT_EQ(refused->Restore(*store, 7).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointFixture, InterleavedSessionsCheckpointAndRestore) {
  const std::string path = TempStorePath("multisession");
  SimulatedUser user_a({0.8, 0.4, -0.2});
  SimulatedUser user_b({-0.3, 0.9, 0.1});
  auto a = NewRecommender(DefaultOptions(), 11);
  auto b = NewRecommender(DefaultOptions(), 77);

  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  // Interleaved rounds and checkpoints of two sessions into one store.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a->RunRound(user_a).ok());
    ASSERT_TRUE(a->Checkpoint(*store, 1).ok());
    ASSERT_TRUE(b->RunRound(user_b).ok());
    ASSERT_TRUE(b->Checkpoint(*store, 2).ok());
  }
  auto next_a = a->RunRound(user_a);
  auto next_b = b->RunRound(user_b);
  ASSERT_TRUE(next_a.ok());
  ASSERT_TRUE(next_b.ok());

  // Release the first handle (and its writer lock) before reopening.
  store = Status::Internal("released");
  auto reopened = storage::SessionStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto ra = NewRecommender(DefaultOptions(), 0);
  auto rb = NewRecommender(DefaultOptions(), 0);
  ASSERT_TRUE(ra->Restore(*reopened, 1).ok());
  ASSERT_TRUE(rb->Restore(*reopened, 2).ok());
  auto got_a = ra->RunRound(user_a);
  auto got_b = rb->RunRound(user_b);
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  ExpectSameRound(*next_a, *got_a);
  ExpectSameRound(*next_b, *got_b);
  EXPECT_GT(got_a->samples_reused, 0u);
  EXPECT_GT(got_b->samples_reused, 0u);
  EXPECT_GT(got_a->searches_skipped, 0u);
  EXPECT_GT(got_b->searches_skipped, 0u);
}

// Vector lengths are the one payload shape a codec cannot check without
// being told the prior's dimension. Each refusal case below checkpoints a
// 2-round session, then rewrites one committed state record as a
// well-framed, CRC-valid record whose every vector is one element short.
// Restore must refuse it and leave the recommender as constructed, so the
// next round is a fresh session's first instead of a read past a heap
// buffer.
class ShortVectorFixture : public CheckpointFixture {
 protected:
  // Runs 2 rounds and checkpoints them as session 7 (sequence 1).
  void CheckpointTwoRounds(storage::SessionStore& store) {
    original_ = NewRecommender(DefaultOptions(), 11);
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(original_->RunRound(user_).ok());
    }
    ASSERT_TRUE(original_->Checkpoint(store, 7).ok());
  }

  // Overwrites session 7's committed (sequence 1) record of `kind`.
  static void RewriteCommitted(storage::SessionStore& store,
                               storage::RecordKind kind,
                               const std::string& payload) {
    ByteWriter seq;
    seq.PutU64(1);
    const std::string record = seq.bytes() + payload;
    ASSERT_TRUE(store.Put(7, storage::GenSlotKind(kind, 1), record).ok());
  }

  // Re-encodes session 7's committed top-list cache with `edit` applied to
  // every cached list.
  void RewriteCachedLists(
      storage::SessionStore& store,
      const std::function<void(ranking::SampleTopList&)>& edit) {
    auto committed = store.Get(
        7, storage::GenSlotKind(storage::kKindTopListCache, /*seq=*/1));
    ASSERT_TRUE(committed.ok()) << committed.status();
    const std::string payload = committed->substr(sizeof(std::uint64_t));
    ranking::IncrementalRanker decoded(evaluator_.get());
    ASSERT_TRUE(storage::DecodeTopListCacheInto(payload, decoded).ok());
    const ranking::IncrementalRanker::CacheSnapshot snap = decoded.Snapshot();
    ASSERT_FALSE(snap.entries.empty());
    std::vector<std::pair<sampling::SampleId, ranking::SampleTopList>> entries;
    for (const auto& [id, list] : snap.entries) {
      entries.emplace_back(id, *list);
      edit(entries.back().second);
    }
    ranking::IncrementalRanker edited(evaluator_.get());
    edited.RestoreSnapshot(snap.has_options, snap.options, snap.epoch,
                           std::move(entries));
    RewriteCommitted(store, storage::kKindTopListCache,
                     storage::EncodeTopListCache(edited));
  }

  // Rewrites session 7's committed top-list cache in the version-1 layout,
  // which also stored each cached sample's weight vector and importance
  // weight. Both are taken from the checkpointed pool, `edit_w` applied to
  // each vector; call it before original_ runs another round.
  void RewriteCacheAsVersion1(storage::SessionStore& store,
                              const std::function<void(Vec&)>& edit_w) {
    auto committed = store.Get(
        7, storage::GenSlotKind(storage::kKindTopListCache, /*seq=*/1));
    ASSERT_TRUE(committed.ok()) << committed.status();
    ranking::IncrementalRanker decoded(evaluator_.get());
    ASSERT_TRUE(storage::DecodeTopListCacheInto(
                    committed->substr(sizeof(std::uint64_t)), decoded)
                    .ok());
    const ranking::IncrementalRanker::CacheSnapshot snap = decoded.Snapshot();
    ASSERT_EQ(snap.entries.size(), original_->pool().size());
    ByteWriter w;
    w.PutU8(1);
    w.PutU8(snap.has_options ? 1 : 0);
    w.PutU64(snap.options.list_size);
    w.PutU64(snap.options.limits.max_expansions);
    w.PutU64(snap.options.limits.max_items_accessed);
    w.PutU64(snap.options.limits.max_queue);
    w.PutU8(snap.options.limits.expand_on_ties ? 1 : 0);
    w.PutU8(snap.options.has_filter ? 1 : 0);
    w.PutU64(snap.epoch);
    w.PutU32(static_cast<std::uint32_t>(snap.entries.size()));
    for (const auto& [id, list] : snap.entries) {
      const sampling::WeightedSample* sample = nullptr;
      for (const sampling::WeightedSample& s : original_->pool().samples()) {
        if (s.id == id) sample = &s;
      }
      ASSERT_NE(sample, nullptr) << "cached sample " << id << " not pooled";
      w.PutU64(id);
      w.PutU32(static_cast<std::uint32_t>(list->packages.size()));
      for (const topk::ScoredPackage& sp : list->packages) {
        storage::PutPackage(w, sp.package);
        w.PutF64(sp.utility);
      }
      Vec v = sample->w;
      edit_w(v);
      w.PutVec(v);
      w.PutF64(sample->weight);
      w.PutU8(list->truncated ? 1 : 0);
    }
    RewriteCommitted(store, storage::kKindTopListCache, std::move(w).Take());
  }

  void ExpectRefusedAndUntouched(storage::SessionStore& store,
                                 const std::string& record) {
    auto restored = NewRecommender(DefaultOptions(), 11);
    const Status st = restored->Restore(store, 7);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
    EXPECT_NE(st.message().find(record), std::string::npos) << st;
    EXPECT_EQ(restored->pool().size(), 0u);
    EXPECT_TRUE(restored->round_history().empty());
    EXPECT_EQ(restored->feedback().num_nodes(), 0u);
    auto log = restored->RunRound(user_);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->samples_reused, 0u);
  }

  SimulatedUser user_{{0.8, 0.4, -0.2}};
  std::unique_ptr<PackageRecommender> original_;
};

TEST_F(ShortVectorFixture, RestoreRejectsShortPoolVectors) {
  auto store = storage::SessionStore::Open(TempStorePath("short_pool"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  std::vector<sampling::WeightedSample> samples = original_->pool().samples();
  for (sampling::WeightedSample& s : samples) s.w.pop_back();
  auto pool = sampling::SamplePool::FromSnapshot(std::move(samples));
  ASSERT_TRUE(pool.ok()) << pool.status();
  RewriteCommitted(*store, storage::kKindSamplePool,
                   storage::EncodeSamplePool(*pool));
  ExpectRefusedAndUntouched(*store, "sample-pool");
}

TEST_F(ShortVectorFixture, RestoreRejectsShortPreferenceVectors) {
  auto store = storage::SessionStore::Open(TempStorePath("short_pref"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  const pref::PreferenceSet& feedback = original_->feedback();
  ASSERT_GT(feedback.num_edges(), 0u);
  std::vector<Vec> vectors = feedback.node_vectors();
  for (Vec& v : vectors) v.pop_back();
  auto shortened = pref::PreferenceSet::FromSnapshot(
      std::move(vectors), feedback.node_keys(), feedback.adjacency());
  ASSERT_TRUE(shortened.ok()) << shortened.status();
  RewriteCommitted(*store, storage::kKindPreferenceSet,
                   storage::EncodePreferenceSet(*shortened));
  ExpectRefusedAndUntouched(*store, "preference-set");
}

// Checkpoints written while the cache record still copied the pool's
// vectors and weights (format version 1) restore: the copies are read and
// discarded, and the next round equals the uninterrupted session's, served
// from the restored cache.
TEST_F(ShortVectorFixture, Version1CacheRecordRestoresAndResumes) {
  auto store = storage::SessionStore::Open(TempStorePath("v1_cache"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  const auto cache_kind =
      storage::GenSlotKind(storage::kKindTopListCache, /*seq=*/1);
  auto v2 = store->Get(7, cache_kind);
  ASSERT_TRUE(v2.ok()) << v2.status();
  RewriteCacheAsVersion1(*store, [](Vec&) {});
  auto v1 = store->Get(7, cache_kind);
  ASSERT_TRUE(v1.ok()) << v1.status();
  // The copies cost 36 B per cached sample: a u32 length, 3 coordinates
  // and the importance weight.
  EXPECT_EQ(v1->size() - v2->size(), 36 * original_->pool().size());
  auto want = original_->RunRound(user_);
  ASSERT_TRUE(want.ok()) << want.status();

  auto restored = NewRecommender(DefaultOptions(), 11);
  ASSERT_TRUE(restored->Restore(*store, 7).ok());
  auto got = restored->RunRound(user_);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameRound(*want, *got);
  EXPECT_GT(got->searches_skipped, 0u);
}

// A version-1 cache record whose copied vectors are one element short was
// refused while rounds aggregated those copies, which would have read past
// them. They are discarded now, so the record restores and the next round
// runs on the pool's own vectors (ASan-clean in the sanitizer build).
TEST_F(ShortVectorFixture, Version1CacheRecordWithShortVectorsRestores) {
  auto store = storage::SessionStore::Open(TempStorePath("v1_short_cache"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  RewriteCacheAsVersion1(*store, [](Vec& v) { v.pop_back(); });
  auto want = original_->RunRound(user_);
  ASSERT_TRUE(want.ok()) << want.status();

  auto restored = NewRecommender(DefaultOptions(), 11);
  const Status st = restored->Restore(*store, 7);
  ASSERT_TRUE(st.ok()) << st;
  auto got = restored->RunRound(user_);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameRound(*want, *got);
}

// A CRC-valid cache record whose cached packages name an item id past the
// catalog (the first id out, 40 of 40): such a restore used to succeed, and
// the next round's EXP scoring read the item's row past the end of the item
// table.
TEST_F(ShortVectorFixture, RestoreRejectsOutOfCatalogCachedItems) {
  auto store = storage::SessionStore::Open(TempStorePath("item_cache"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  const auto past_end = static_cast<model::ItemId>(table_->num_items());
  RewriteCachedLists(*store, [&](ranking::SampleTopList& list) {
    ASSERT_FALSE(list.packages.empty());
    list.packages[0].package = list.packages[0].package.With(past_end);
  });
  ExpectRefusedAndUntouched(*store, "top-list-cache record names item 40");
}

// The same for the current top-k in the meta record, which GetTopK serves
// as is.
TEST_F(ShortVectorFixture, RestoreRejectsOutOfCatalogTopK) {
  auto store = storage::SessionStore::Open(TempStorePath("item_meta"));
  ASSERT_TRUE(store.ok()) << store.status();
  CheckpointTwoRounds(*store);
  auto meta = store->Get(7, storage::kKindRecommenderMeta);
  ASSERT_TRUE(meta.ok()) << meta.status();
  // Meta layout: u8 version, u64 sequence, fingerprint, rng state, then the
  // current top-k as a u32 count of packages; the rest is copied as is.
  ByteReader r(*meta);
  ByteWriter w;
  auto version = r.GetU8();
  auto seq = r.GetU64();
  auto fingerprint = r.GetString();
  auto rng_state = r.GetString();
  auto count = r.GetU32();
  ASSERT_TRUE(version.ok() && seq.ok() && fingerprint.ok() && rng_state.ok() &&
              count.ok());
  ASSERT_GT(*count, 0u);
  w.PutU8(*version);
  w.PutU64(*seq);
  w.PutString(*fingerprint);
  w.PutString(*rng_state);
  w.PutU32(*count);
  const auto past_end = static_cast<model::ItemId>(table_->num_items());
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto p = storage::GetPackage(r);
    ASSERT_TRUE(p.ok()) << p.status();
    storage::PutPackage(w, i == 0 ? p->With(past_end) : *p);
  }
  const std::string rewritten = w.bytes() + meta->substr(r.position());
  ASSERT_TRUE(store->Put(7, storage::kKindRecommenderMeta, rewritten).ok());
  ExpectRefusedAndUntouched(*store, "meta record names item 40");
}

// The meta record's config fingerprint for library-default options, pinned
// byte for byte: Restore refuses any checkpoint whose fingerprint differs,
// so a change here orphans every stored session. Settings that became
// constants (constraint pruning, the incremental engine) keep their fields.
TEST_F(CheckpointFixture, DefaultOptionsFingerprintIsPinned) {
  const std::string path = TempStorePath("fingerprint");
  auto rec = NewRecommender(RecommenderOptions(), 11);
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(rec->Checkpoint(*store, 5).ok());
  auto meta_bytes = store->Get(5, storage::kKindRecommenderMeta);
  ASSERT_TRUE(meta_bytes.ok()) << meta_bytes.status();
  // Meta layout: u8 version, u64 checkpoint sequence, string fingerprint.
  ByteReader meta(*meta_bytes);
  auto version = meta.GetU8();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  auto seq = meta.GetU64();
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 1u);
  auto fingerprint = meta.GetString();
  ASSERT_TRUE(fingerprint.ok());
  EXPECT_EQ(*fingerprint,
            "m=3;items=40;phi=3;profile=sum,avg,min;sampler=MS;semantics=EXP;"
            "num_samples=300;num_recommended=5;num_random=5;k=5;sigma=5;"
            "psi=1.000000;prune=1;incremental=1;sharded_draw=0");
}

// Compaction across many checkpoints of a live session keeps only the
// newest generation; the restored state is unaffected.
TEST_F(CheckpointFixture, CompactionPreservesTheLatestCheckpoint) {
  const std::string path = TempStorePath("compact");
  SimulatedUser user({0.8, 0.4, -0.2});
  auto original = NewRecommender(DefaultOptions(), 11);
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(original->RunRound(user).ok());
    ASSERT_TRUE(original->Checkpoint(*store, 3).ok());
  }
  EXPECT_GT(store->stats().dead_bytes, 0u);
  const auto before = store->stats().file_bytes;
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->stats().file_bytes, before);
  EXPECT_EQ(store->stats().dead_bytes, 0u);

  auto want = original->RunRound(user);
  ASSERT_TRUE(want.ok());
  auto restored = NewRecommender(DefaultOptions(), 0);
  ASSERT_TRUE(restored->Restore(*store, 3).ok());
  auto got = restored->RunRound(user);
  ASSERT_TRUE(got.ok());
  ExpectSameRound(*want, *got);
}

}  // namespace
}  // namespace topkpkg::recsys
