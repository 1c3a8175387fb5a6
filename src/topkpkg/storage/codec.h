#ifndef TOPKPKG_STORAGE_CODEC_H_
#define TOPKPKG_STORAGE_CODEC_H_

// Versioned binary codecs for the session state the durable store persists:
// the elicited PreferenceSet DAG, the SamplePool (with its process-unique
// SampleIds — identity is part of the state, the incremental ranker's cache
// is keyed by it), the ranking layer's TopListCache, and the RoundLog
// history. Each payload starts with a one-byte format version so kinds can
// evolve independently; decoders reject unknown versions with
// Unimplemented and malformed bytes with OutOfRange/InvalidArgument —
// never UB (every read is bounds-checked through ByteReader).
//
// The contract is *bit-identical* restore: doubles round-trip as IEEE-754
// bit patterns, orders are preserved (pool order, node order, adjacency
// order), so a restored session's next round replays exactly as the
// uninterrupted one would.

#include <cstddef>
#include <string>
#include <vector>

#include "topkpkg/common/serde.h"
#include "topkpkg/common/status.h"
#include "topkpkg/pref/preference_set.h"
#include "topkpkg/ranking/incremental_ranker.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/sampling/sample_pool.h"
#include "topkpkg/storage/record_log.h"

namespace topkpkg::storage {

// Record kinds a checkpointed PackageRecommender session occupies. The
// tombstone bit (session_store.h) is reserved; kinds here must stay below
// it.
inline constexpr RecordKind kKindPreferenceSet = 1;
inline constexpr RecordKind kKindSamplePool = 2;
inline constexpr RecordKind kKindTopListCache = 3;
inline constexpr RecordKind kKindRoundHistory = 4;
inline constexpr RecordKind kKindRecommenderMeta = 5;

// Checkpoints alternate their state records between two kind slots by
// sequence parity (base kind for odd sequences, base + this offset for
// even ones); the meta record — a single atomic append, written last —
// names the sequence and thereby selects the slot. A checkpoint torn by a
// crash mid-write only ever dirties the *other* slot, so Restore falls
// back to the last committed generation instead of losing the session.
inline constexpr RecordKind kKindGenSlotOffset = 8;

inline RecordKind GenSlotKind(RecordKind base, std::uint64_t seq) {
  return seq % 2 == 0 ? base + kKindGenSlotOffset : base;
}

// The single wire format for one model::Package (u32 item count + u32
// item ids), shared by the codecs here and the recommender's meta record.
void PutPackage(ByteWriter& w, const model::Package& p);
Result<model::Package> GetPackage(ByteReader& r);

// --- PreferenceSet -------------------------------------------------------

std::string EncodePreferenceSet(const pref::PreferenceSet& set);
Result<pref::PreferenceSet> DecodePreferenceSet(const std::string& payload);

// --- SamplePool ----------------------------------------------------------

// Decode rebuilds the pool via SamplePool::FromSnapshot, which also raises
// the process-wide id mint past the restored ids.
std::string EncodeSamplePool(const sampling::SamplePool& pool);
Result<sampling::SamplePool> DecodeSamplePool(const std::string& payload);

// --- IncrementalRanker's TopListCache ------------------------------------

// Each entry is a sample id and its top list; the sample's weight vector
// and importance weight live in the sample-pool record only. Decode parses
// the whole payload before touching `ranker`. It also reads version-1
// payloads, which carried a copy of both per entry, and discards the copies.
std::string EncodeTopListCache(const ranking::IncrementalRanker& ranker);
Status DecodeTopListCacheInto(const std::string& payload,
                              ranking::IncrementalRanker& ranker);

// --- RoundLog history ----------------------------------------------------

std::string EncodeRoundHistory(const std::vector<recsys::RoundLog>& history);
Result<std::vector<recsys::RoundLog>> DecodeRoundHistory(
    const std::string& payload);

}  // namespace topkpkg::storage

#endif  // TOPKPKG_STORAGE_CODEC_H_
