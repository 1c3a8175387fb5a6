#include "topkpkg/storage/codec.h"

#include <utility>

#include "topkpkg/common/serde.h"

namespace topkpkg::storage {

namespace {

constexpr std::uint8_t kPreferenceSetVersion = 1;
constexpr std::uint8_t kSamplePoolVersion = 1;
// Version 1 also stored each cached sample's weight vector and importance
// weight; version 2 leaves both to the sample-pool record.
constexpr std::uint8_t kTopListCacheVersion = 2;
constexpr std::uint8_t kRoundHistoryVersion = 2;

Status CheckVersion(std::uint8_t got, std::uint8_t expect, const char* what) {
  if (got == expect) return Status::OK();
  return Status::Unimplemented(std::string("codec: ") + what +
                               " payload version " + std::to_string(got) +
                               "; this build reads version " +
                               std::to_string(expect));
}

// Guards count-prefixed loops against corrupt counts: every element holds
// at least one byte, so a count exceeding the remaining payload is
// malformed and must not drive the allocation it sizes.
Status CheckCount(std::uint64_t n, const ByteReader& r, const char* what) {
  if (n <= r.remaining()) return Status::OK();
  return Status::OutOfRange(std::string("codec: ") + what + " count " +
                            std::to_string(n) + " exceeds the " +
                            std::to_string(r.remaining()) +
                            " remaining payload bytes");
}

void PutTopList(ByteWriter& w, const ranking::SampleTopList& list) {
  w.PutU32(static_cast<std::uint32_t>(list.packages.size()));
  for (const topk::ScoredPackage& sp : list.packages) {
    PutPackage(w, sp.package);
    w.PutF64(sp.utility);
  }
  w.PutU8(list.truncated ? 1 : 0);
}

Result<ranking::SampleTopList> GetTopList(ByteReader& r,
                                          std::uint8_t version) {
  ranking::SampleTopList list;
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "top-list package"));
  list.packages.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    topk::ScoredPackage sp;
    TOPKPKG_ASSIGN_OR_RETURN(sp.package, GetPackage(r));
    TOPKPKG_ASSIGN_OR_RETURN(sp.utility, r.GetF64());
    list.packages.push_back(std::move(sp));
  }
  if (version == 1) {
    TOPKPKG_RETURN_IF_ERROR(r.GetVec().status());
    TOPKPKG_RETURN_IF_ERROR(r.GetF64().status());
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t truncated, r.GetU8());
  list.truncated = truncated != 0;
  return list;
}

void PutSampleStats(ByteWriter& w, const sampling::SampleStats& s) {
  w.PutU64(s.proposed);
  w.PutU64(s.accepted);
  w.PutU64(s.rejected_constraint);
  w.PutU64(s.rejected_box);
  w.PutU64(s.rejected_mh);
  w.PutU64(s.constraint_checks);
  w.PutF64(s.seconds);
}

Result<sampling::SampleStats> GetSampleStats(ByteReader& r) {
  sampling::SampleStats s;
  TOPKPKG_ASSIGN_OR_RETURN(s.proposed, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.accepted, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.rejected_constraint, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.rejected_box, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.rejected_mh, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.constraint_checks, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(s.seconds, r.GetF64());
  return s;
}

}  // namespace

void PutPackage(ByteWriter& w, const model::Package& p) {
  w.PutU32(static_cast<std::uint32_t>(p.items().size()));
  for (model::ItemId id : p.items()) w.PutU32(id);
}

Result<model::Package> GetPackage(ByteReader& r) {
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "package item"));
  std::vector<model::ItemId> items(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(items[i], r.GetU32());
  }
  return model::Package::Of(std::move(items));
}

std::string EncodePreferenceSet(const pref::PreferenceSet& set) {
  ByteWriter w;
  w.PutU8(kPreferenceSetVersion);
  const auto& vectors = set.node_vectors();
  const auto& keys = set.node_keys();
  const auto& adj = set.adjacency();
  w.PutU32(static_cast<std::uint32_t>(vectors.size()));
  for (std::size_t u = 0; u < vectors.size(); ++u) {
    w.PutString(keys[u]);
    w.PutVec(vectors[u]);
  }
  for (std::size_t u = 0; u < adj.size(); ++u) {
    w.PutU32(static_cast<std::uint32_t>(adj[u].size()));
    for (std::size_t v : adj[u]) w.PutU32(static_cast<std::uint32_t>(v));
  }
  return std::move(w).Take();
}

Result<pref::PreferenceSet> DecodePreferenceSet(const std::string& payload) {
  ByteReader r(payload);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t version, r.GetU8());
  TOPKPKG_RETURN_IF_ERROR(
      CheckVersion(version, kPreferenceSetVersion, "PreferenceSet"));
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "preference node"));
  std::vector<Vec> vectors(n);
  std::vector<std::string> keys(n);
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    TOPKPKG_ASSIGN_OR_RETURN(keys[u], r.GetString());
    TOPKPKG_ASSIGN_OR_RETURN(vectors[u], r.GetVec());
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t deg, r.GetU32());
    TOPKPKG_RETURN_IF_ERROR(CheckCount(deg, r, "adjacency"));
    adj[u].reserve(deg);
    for (std::uint32_t i = 0; i < deg; ++i) {
      TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t v, r.GetU32());
      adj[u].push_back(v);
    }
  }
  return pref::PreferenceSet::FromSnapshot(std::move(vectors),
                                           std::move(keys), std::move(adj));
}

std::string EncodeSamplePool(const sampling::SamplePool& pool) {
  ByteWriter w;
  w.PutU8(kSamplePoolVersion);
  w.PutU32(static_cast<std::uint32_t>(pool.size()));
  for (const sampling::WeightedSample& s : pool.samples()) {
    w.PutU64(s.id);
    w.PutF64(s.weight);
    w.PutVec(s.w);
  }
  return std::move(w).Take();
}

Result<sampling::SamplePool> DecodeSamplePool(const std::string& payload) {
  ByteReader r(payload);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t version, r.GetU8());
  TOPKPKG_RETURN_IF_ERROR(
      CheckVersion(version, kSamplePoolVersion, "SamplePool"));
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "pool sample"));
  std::vector<sampling::WeightedSample> samples(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(samples[i].id, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(samples[i].weight, r.GetF64());
    TOPKPKG_ASSIGN_OR_RETURN(samples[i].w, r.GetVec());
  }
  return sampling::SamplePool::FromSnapshot(std::move(samples));
}

std::string EncodeTopListCache(const ranking::IncrementalRanker& ranker) {
  const ranking::IncrementalRanker::CacheSnapshot snap = ranker.Snapshot();
  ByteWriter w;
  w.PutU8(kTopListCacheVersion);
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
    w.PutU64(id);
    PutTopList(w, *list);
  }
  return std::move(w).Take();
}

Status DecodeTopListCacheInto(const std::string& payload,
                              ranking::IncrementalRanker& ranker) {
  ByteReader r(payload);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t version, r.GetU8());
  if (version != 1) {
    TOPKPKG_RETURN_IF_ERROR(
        CheckVersion(version, kTopListCacheVersion, "TopListCache"));
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t has_options, r.GetU8());
  ranking::IncrementalRanker::CacheKeyOptions options;
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t list_size, r.GetU64());
  options.list_size = static_cast<std::size_t>(list_size);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t max_expansions, r.GetU64());
  options.limits.max_expansions = static_cast<std::size_t>(max_expansions);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t max_items, r.GetU64());
  options.limits.max_items_accessed = static_cast<std::size_t>(max_items);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t max_queue, r.GetU64());
  options.limits.max_queue = static_cast<std::size_t>(max_queue);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t expand_on_ties, r.GetU8());
  options.limits.expand_on_ties = expand_on_ties != 0;
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t has_filter, r.GetU8());
  options.has_filter = has_filter != 0;
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t epoch, r.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "cache entry"));
  std::vector<std::pair<sampling::SampleId, ranking::SampleTopList>> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t id, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(ranking::SampleTopList list,
                             GetTopList(r, version));
    entries.emplace_back(id, std::move(list));
  }
  ranker.RestoreSnapshot(has_options != 0, options, epoch,
                         std::move(entries));
  return Status::OK();
}

std::string EncodeRoundHistory(const std::vector<recsys::RoundLog>& history) {
  ByteWriter w;
  w.PutU8(kRoundHistoryVersion);
  w.PutU32(static_cast<std::uint32_t>(history.size()));
  for (const recsys::RoundLog& log : history) {
    w.PutU32(static_cast<std::uint32_t>(log.presented.size()));
    for (const model::Package& p : log.presented) PutPackage(w, p);
    w.PutU32(static_cast<std::uint32_t>(log.presented_vectors.size()));
    for (const Vec& v : log.presented_vectors) w.PutVec(v);
    w.PutU64(log.num_recommended);
    w.PutU64(log.clicked);
    w.PutU32(static_cast<std::uint32_t>(log.top_k.size()));
    for (const model::Package& p : log.top_k) PutPackage(w, p);
    w.PutF64(log.top_k_overlap);
    w.PutU8(log.top_k_changed ? 1 : 0);
    PutSampleStats(w, log.sampling_stats);
    w.PutU64(log.samples_reused);
    w.PutU64(log.samples_resampled);
    w.PutU64(log.searches_skipped);
    w.PutU64(log.searches_deduped);
    w.PutU64(log.searches_unique);
    w.PutF64(log.maintain_seconds);
    w.PutF64(log.sample_seconds);
    w.PutF64(log.rank_seconds);
  }
  return std::move(w).Take();
}

Result<std::vector<recsys::RoundLog>> DecodeRoundHistory(
    const std::string& payload) {
  ByteReader r(payload);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t version, r.GetU8());
  TOPKPKG_RETURN_IF_ERROR(
      CheckVersion(version, kRoundHistoryVersion, "RoundHistory"));
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
  TOPKPKG_RETURN_IF_ERROR(CheckCount(n, r, "round log"));
  std::vector<recsys::RoundLog> history;
  history.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    recsys::RoundLog log;
    TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t presented, r.GetU32());
    for (std::uint32_t j = 0; j < presented; ++j) {
      TOPKPKG_ASSIGN_OR_RETURN(model::Package p, GetPackage(r));
      log.presented.push_back(std::move(p));
    }
    TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t vectors, r.GetU32());
    for (std::uint32_t j = 0; j < vectors; ++j) {
      TOPKPKG_ASSIGN_OR_RETURN(Vec v, r.GetVec());
      log.presented_vectors.push_back(std::move(v));
    }
    TOPKPKG_ASSIGN_OR_RETURN(log.num_recommended, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.clicked, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t top_k, r.GetU32());
    for (std::uint32_t j = 0; j < top_k; ++j) {
      TOPKPKG_ASSIGN_OR_RETURN(model::Package p, GetPackage(r));
      log.top_k.push_back(std::move(p));
    }
    TOPKPKG_ASSIGN_OR_RETURN(log.top_k_overlap, r.GetF64());
    TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t changed, r.GetU8());
    log.top_k_changed = changed != 0;
    TOPKPKG_ASSIGN_OR_RETURN(log.sampling_stats, GetSampleStats(r));
    TOPKPKG_ASSIGN_OR_RETURN(log.samples_reused, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.samples_resampled, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.searches_skipped, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.searches_deduped, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.searches_unique, r.GetU64());
    TOPKPKG_ASSIGN_OR_RETURN(log.maintain_seconds, r.GetF64());
    TOPKPKG_ASSIGN_OR_RETURN(log.sample_seconds, r.GetF64());
    TOPKPKG_ASSIGN_OR_RETURN(log.rank_seconds, r.GetF64());
    history.push_back(std::move(log));
  }
  return history;
}

}  // namespace topkpkg::storage
