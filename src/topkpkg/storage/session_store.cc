#include "topkpkg/storage/session_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "topkpkg/obs/metrics.h"

namespace topkpkg::storage {

namespace {

// The flush timer's clock: injected (tests), else steady_clock.
std::uint64_t NowMs(const SessionStoreOptions& opts) {
  if (opts.clock_ms) return opts.clock_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-global storage metrics (LogBase-style per-component counters for
// the log-structured machinery). Unlabeled: counters are monotone across
// every store the process opens; gauges are last-writer-wins, which matches
// the SessionManager invariant of one live store per manager. The
// SessionStore::Stats struct stays the per-store source of truth — these
// series are the scrape surface, registered lazily on first touch.
struct StoreMetrics {
  obs::Counter* puts;
  obs::Counter* fsyncs;
  obs::Counter* rolls;
  obs::Counter* compactions;
  obs::Counter* compact_bytes_reclaimed;
  obs::Gauge* segments;
  obs::Gauge* active_bytes;
  obs::Gauge* live_bytes;
  obs::Gauge* dead_bytes;
  obs::Histogram* put_latency;
  obs::Histogram* fsync_latency;
  obs::Histogram* flush_latency;
  obs::Histogram* commit_window;
};

StoreMetrics& Metrics() {
  static StoreMetrics* const m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* out = new StoreMetrics();
    out->puts = reg.GetCounter("topkpkg_store_puts_total",
                               "Record mutations appended to the log");
    out->fsyncs = reg.GetCounter("topkpkg_store_fsyncs_total",
                                 "fsync calls issued by the store");
    out->rolls = reg.GetCounter("topkpkg_store_segment_rolls_total",
                                "Active segments sealed and rolled");
    out->compactions =
        reg.GetCounter("topkpkg_store_compactions_total",
                       "Cold-segment merge compactions committed");
    out->compact_bytes_reclaimed = reg.GetCounter(
        "topkpkg_store_compaction_bytes_reclaimed_total",
        "On-disk bytes freed by compaction (cold inputs minus merge output)");
    out->segments = reg.GetGauge("topkpkg_store_segments",
                                 "Segment files in the store directory");
    out->active_bytes = reg.GetGauge("topkpkg_store_active_segment_bytes",
                                     "Size of the segment being appended to");
    out->live_bytes = reg.GetGauge("topkpkg_store_live_bytes",
                                   "Payload bytes the keydir still points at");
    out->dead_bytes = reg.GetGauge(
        "topkpkg_store_dead_bytes",
        "Superseded payload bytes awaiting compaction");
    out->put_latency = reg.GetHistogram("topkpkg_store_put_seconds",
                                        "Put latency, append through commit");
    out->fsync_latency =
        reg.GetHistogram("topkpkg_store_fsync_seconds", "fsync latency");
    out->flush_latency = reg.GetHistogram("topkpkg_store_flush_seconds",
                                          "Explicit Flush latency");
    out->commit_window = reg.GetHistogram(
        "topkpkg_store_group_commit_puts",
        "Acknowledged puts covered by one group-commit fsync");
    return out;
  }();
  return *m;
}

// Group-commit occupancy: how many acknowledged puts one drain covers.
// Call immediately before resetting puts_since_sync_.
void ObserveWindowDrain(std::uint64_t puts_in_window) {
  if (puts_in_window > 0) {
    Metrics().commit_window->Observe(static_cast<double>(puts_in_window));
  }
}

// All of the store's fsyncs funnel through here so each one lands in the
// fsync latency histogram and counter alongside the per-store stats_.
Status TimedSync(RecordLogWriter& w) {
  obs::ScopedLatency lat(Metrics().fsync_latency);
  Status st = w.Sync();
  if (st.ok()) Metrics().fsyncs->Increment();
  return st;
}

}  // namespace

std::string SegmentFileName(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "segment-%06" PRIu64 ".tkps", id);
  return buf;
}

std::string SegmentHintName(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "segment-%06" PRIu64 ".hint", id);
  return buf;
}

std::uint64_t ParseSegmentFileName(const std::string& name) {
  constexpr char kPrefix[] = "segment-";
  constexpr char kSuffix[] = ".tkps";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr std::size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kPrefixLen + kSuffixLen) return 0;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return 0;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return 0;
  }
  std::uint64_t id = 0;
  for (std::size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

std::string SessionStore::SegmentPath(std::uint64_t id) const {
  return path_ + "/" + SegmentFileName(id);
}

std::string SessionStore::HintPath(std::uint64_t id) const {
  return path_ + "/" + SegmentHintName(id);
}

void SessionStore::PendingHint::Track(const HintEvent& ev) {
  if (ev.kind == kSessionTombstone) {
    // Whole-session tombstones all go in the hint: each one erases exactly
    // the keys whose latest event precedes it, which only replay order can
    // reconstruct.
    session_tombs.push_back(ev);
    return;
  }
  latest[Key{ev.session_id, ev.kind & ~kTombstoneBit}] = ev;
}

std::vector<HintEvent> SessionStore::PendingHint::CollectSorted() const {
  std::vector<HintEvent> out;
  out.reserve(latest.size() + session_tombs.size());
  for (const auto& [key, ev] : latest) out.push_back(ev);
  out.insert(out.end(), session_tombs.begin(), session_tombs.end());
  std::sort(out.begin(), out.end(),
            [](const HintEvent& a, const HintEvent& b) {
              return a.offset < b.offset;
            });
  return out;
}

void SessionStore::PendingHint::Clear() {
  latest.clear();
  session_tombs.clear();
}

Result<SessionStore> SessionStore::Open(const std::string& path,
                                        SessionStoreOptions options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  options.env = env;
  Status created = env->CreateDir(path);
  if (!created.ok()) {
    if (created.code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(
          "session store: " + path +
          " is a regular file — the pre-segmented single-file format; this "
          "version keeps a directory of segments and does not migrate old "
          "stores");
    }
    return created;
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> lock,
                           env->LockFile(path + "/LOCK"));
  SessionStore store(path, options, std::move(lock));

  TOPKPKG_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(path));
  std::vector<std::uint64_t> ids;
  for (const std::string& name : names) {
    constexpr char kCompactSuffix[] = ".compact";
    constexpr std::size_t kCompactLen = sizeof(kCompactSuffix) - 1;
    if (name.size() > kCompactLen &&
        name.compare(name.size() - kCompactLen, kCompactLen,
                     kCompactSuffix) == 0) {
      // A compaction died before its rename; the merge never committed.
      TOPKPKG_RETURN_IF_ERROR(env->RemoveFile(path + "/" + name));
      continue;
    }
    if (const std::uint64_t id = ParseSegmentFileName(name); id != 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());

  // The active segment is the highest id *without* a valid hint. A valid
  // hint on the highest means the previous process sealed it but crashed
  // before (or while) creating the next segment — finish its roll here.
  std::uint64_t active_id = 1;
  if (!ids.empty()) {
    const std::uint64_t highest = ids.back();
    bool highest_sealed = false;
    Result<HintFileContents> hint = LoadHintFile(store.HintPath(highest));
    if (hint.ok()) {
      Result<std::uint64_t> size = env->FileSize(store.SegmentPath(highest));
      highest_sealed = size.ok() && hint->segment_file_size == *size;
    }
    active_id = highest_sealed ? highest + 1 : highest;
  }

  for (const std::uint64_t id : ids) {
    if (id == active_id) continue;
    TOPKPKG_RETURN_IF_ERROR(store.RecoverSealedSegment(id));
  }

  const std::string active_path = store.SegmentPath(active_id);
  const bool active_existed = env->FileExists(active_path);
  if (active_existed) {
    TOPKPKG_RETURN_IF_ERROR(store.ScanSegment(active_id, /*sealed=*/false));
  }
  TOPKPKG_ASSIGN_OR_RETURN(RecordLogWriter writer,
                           RecordLogWriter::Open(active_path,
                                                 /*truncate=*/false, env));
  if (!active_existed) {
    // Pin the new segment's directory entry before acknowledging anything
    // into it (kEveryPut's guarantee covers the entry, not just the bytes).
    TOPKPKG_RETURN_IF_ERROR(env->SyncDir(path));
  }
  store.active_id_ = active_id;
  store.segments_[active_id].data_bytes = writer.end_offset();
  store.writer_ = std::make_unique<RecordLogWriter>(std::move(writer));
  store.RefreshDerivedStats();
  return store;
}

Status SessionStore::RecoverSealedSegment(std::uint64_t id) {
  TOPKPKG_ASSIGN_OR_RETURN(const std::uint64_t size,
                           env()->FileSize(SegmentPath(id)));
  Result<HintFileContents> hint = LoadHintFile(HintPath(id));
  if (hint.ok() && hint->segment_file_size == size) {
    segments_[id].data_bytes = size;
    for (const HintEvent& ev : hint->events) {
      Apply(ev.session_id, ev.kind, id, ev.offset, ev.stored_size);
    }
    ++stats_.hint_startup_segments;
    return Status::OK();
  }
  // Missing, torn, corrupt, or stale (a roll failed after writing it and
  // the segment grew) — scan the log instead and rewrite the hint.
  return ScanSegment(id, /*sealed=*/true);
}

Status SessionStore::ScanSegment(std::uint64_t id, bool sealed) {
  const std::string seg = SegmentPath(id);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t size, env()->FileSize(seg));
  PendingHint builder;
  if (size >= kFileHeaderSize) {
    ReplayStats rstats;
    RecordLogReader reader(seg);
    TOPKPKG_RETURN_IF_ERROR(reader.Replay(
        [this, id, &builder](const Record& rec) {
          Apply(rec.session_id, rec.kind, id, rec.offset, rec.StoredSize());
          builder.Track(HintEvent{rec.session_id, rec.kind, rec.offset,
                                  rec.StoredSize()});
          return Status::OK();
        },
        &rstats));
    if (rstats.torn_tail) {
      // The torn record was never committed; cut it away so appends (or
      // the sealed size) start on a record boundary.
      TOPKPKG_RETURN_IF_ERROR(env()->TruncateFile(seg, rstats.tail_offset));
      stats_.recovered_torn_tail = true;
      size = rstats.tail_offset;
    }
  } else if (size > 0) {
    // Cut inside the file header (crash during segment creation): nothing
    // committed; the writer will start the header over.
    TOPKPKG_RETURN_IF_ERROR(env()->TruncateFile(seg, 0));
    stats_.recovered_torn_tail = true;
    size = 0;
  }
  segments_[id].data_bytes = size;
  if (sealed) {
    ++stats_.scanned_startup_segments;
    // Self-heal: the next open gets a hint again. Best-effort — a failure
    // just means another scan.
    Status ignored =
        WriteHintFile(env(), HintPath(id), size, builder.CollectSorted());
    (void)ignored;
  } else {
    pending_hint_ = std::move(builder);
  }
  return Status::OK();
}

void SessionStore::Apply(std::uint64_t session_id, RecordKind kind,
                         std::uint64_t segment_id, std::uint64_t offset,
                         std::uint64_t stored_size) {
  if (kind == kSessionTombstone) {
    const auto begin = keydir_.lower_bound(Key{session_id, 0});
    const auto end = keydir_.upper_bound(Key{session_id, kSessionTombstone});
    for (auto it = begin; it != end; ++it) DropLive(it->second);
    keydir_.erase(begin, end);
  } else if ((kind & kTombstoneBit) != 0) {
    const auto it = keydir_.find(Key{session_id, kind & ~kTombstoneBit});
    if (it != keydir_.end()) {
      DropLive(it->second);
      keydir_.erase(it);
    }
  } else {
    auto [it, inserted] = keydir_.try_emplace(Key{session_id, kind});
    if (!inserted) DropLive(it->second);
    it->second = KeydirEntry{segment_id, offset, stored_size};
    segments_[segment_id].live_bytes += stored_size;
    stats_.live_bytes += stored_size;
  }
}

void SessionStore::DropLive(const KeydirEntry& entry) {
  const auto it = segments_.find(entry.segment_id);
  if (it != segments_.end()) it->second.live_bytes -= entry.stored_size;
  stats_.live_bytes -= entry.stored_size;
}

void SessionStore::RefreshDerivedStats() {
  stats_.live_records = keydir_.size();
  stats_.segments = segments_.size();
  std::uint64_t files = 0;
  std::uint64_t payload = 0;
  for (const auto& [id, info] : segments_) {
    files += info.data_bytes;
    if (info.data_bytes > kFileHeaderSize) {
      payload += info.data_bytes - kFileHeaderSize;
    }
  }
  stats_.file_bytes = files;
  stats_.dead_bytes = payload - stats_.live_bytes;
  Metrics().segments->Set(static_cast<double>(stats_.segments));
  Metrics().live_bytes->Set(static_cast<double>(stats_.live_bytes));
  Metrics().dead_bytes->Set(static_cast<double>(stats_.dead_bytes));
  const auto active = segments_.find(active_id_);
  if (active != segments_.end()) {
    Metrics().active_bytes->Set(static_cast<double>(active->second.data_bytes));
  }
}

Status SessionStore::RequireWriter() const {
  if (writer_ != nullptr) return Status::OK();
  return Status::Internal(
      "session store: log writer unavailable after a failed segment roll "
      "in " +
      path_ + "; reopen the store");
}

Status SessionStore::CommitMutation(std::uint64_t session_id, RecordKind kind,
                                    std::uint64_t offset,
                                    std::uint64_t stored_size) {
  // Bookkeeping first, durability second: the record is in the log either
  // way, so the keydir must reflect it even when the fsync below fails —
  // otherwise a retry of the "failed" put would leave memory and disk
  // telling different stories after a recovery.
  pending_hint_.Track(HintEvent{session_id, kind, offset, stored_size});
  Apply(session_id, kind, active_id_, offset, stored_size);
  segments_[active_id_].data_bytes = writer_->end_offset();
  RefreshDerivedStats();
  switch (opts_.fsync_policy) {
    case FsyncPolicy::kEveryPut:
      TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
      ++stats_.fsyncs;
      break;
    case FsyncPolicy::kInterval: {
      const bool timer_on = opts_.flush_interval_ms > 0;
      if (timer_on && puts_since_sync_ == 0) {
        // First put of a fresh group-commit window: start its flush clock.
        window_opened_ms_ = NowMs(opts_);
      }
      const bool count_due = ++puts_since_sync_ >= opts_.group_commit_puts;
      const bool timer_due =
          timer_on &&
          NowMs(opts_) - window_opened_ms_ >= opts_.flush_interval_ms;
      if (count_due || timer_due) {
        // Group commit: this fsync covers the whole window of acknowledged
        // mutations since the last one. On failure the window stays open,
        // so the next mutation retries the sync.
        TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
        ++stats_.fsyncs;
        ObserveWindowDrain(puts_since_sync_);
        puts_since_sync_ = 0;
      }
      break;
    }
    case FsyncPolicy::kNone:
      break;
  }
  if (opts_.auto_compact && ColdSegmentWantsCompaction()) {
    // Auto-compaction is advisory: a failure (say, a transient store
    // outage) must not fail the Put that tripped it.
    Status st = CompactCold(/*automatic=*/true);
    if (!st.ok()) ++stats_.failed_auto_compactions;
  }
  return Status::OK();
}

Status SessionStore::Put(std::uint64_t session_id, RecordKind kind,
                         const std::string& payload) {
  obs::ScopedLatency put_lat(Metrics().put_latency);
  Metrics().puts->Increment();
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  if ((kind & kTombstoneBit) != 0) {
    return Status::InvalidArgument(
        "session store: record kinds with the tombstone bit are reserved");
  }
  TOPKPKG_RETURN_IF_ERROR(MaybeRoll());
  TOPKPKG_ASSIGN_OR_RETURN(const std::uint64_t offset,
                           writer_->Append(session_id, kind, payload));
  return CommitMutation(session_id, kind, offset,
                        kRecordHeaderSize + payload.size());
}

Result<std::string> SessionStore::Get(std::uint64_t session_id,
                                      RecordKind kind) const {
  const auto it = keydir_.find(Key{session_id, kind});
  if (it == keydir_.end()) {
    return Status::NotFound("session store: no record for session " +
                            std::to_string(session_id) + " kind " +
                            std::to_string(kind));
  }
  RecordLogReader reader(SegmentPath(it->second.segment_id));
  TOPKPKG_ASSIGN_OR_RETURN(Record rec, reader.ReadAt(it->second.offset));
  if (rec.session_id != session_id || rec.kind != kind) {
    return Status::Internal(
        "session store: keydir offset " + std::to_string(it->second.offset) +
        " of segment " + std::to_string(it->second.segment_id) +
        " holds a record for a different key");
  }
  return std::move(rec.payload);
}

bool SessionStore::Contains(std::uint64_t session_id, RecordKind kind) const {
  return keydir_.find(Key{session_id, kind}) != keydir_.end();
}

Status SessionStore::Delete(std::uint64_t session_id, RecordKind kind) {
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  TOPKPKG_RETURN_IF_ERROR(MaybeRoll());
  TOPKPKG_ASSIGN_OR_RETURN(
      const std::uint64_t offset,
      writer_->Append(session_id, kind | kTombstoneBit, std::string()));
  return CommitMutation(session_id, kind | kTombstoneBit, offset,
                        kRecordHeaderSize);
}

Status SessionStore::DeleteSession(std::uint64_t session_id) {
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  TOPKPKG_RETURN_IF_ERROR(MaybeRoll());
  TOPKPKG_ASSIGN_OR_RETURN(
      const std::uint64_t offset,
      writer_->Append(session_id, kSessionTombstone, std::string()));
  return CommitMutation(session_id, kSessionTombstone, offset,
                        kRecordHeaderSize);
}

std::vector<std::uint64_t> SessionStore::SessionIds() const {
  std::vector<std::uint64_t> ids;
  for (const auto& [key, entry] : keydir_) {
    if (ids.empty() || ids.back() != key.first) ids.push_back(key.first);
  }
  return ids;
}

std::vector<RecordKind> SessionStore::KindsOf(std::uint64_t session_id) const {
  std::vector<RecordKind> kinds;
  for (auto it = keydir_.lower_bound(Key{session_id, 0});
       it != keydir_.end() && it->first.first == session_id; ++it) {
    kinds.push_back(it->first.second);
  }
  return kinds;
}

Status SessionStore::MaybeRoll() {
  if (writer_->end_offset() < opts_.segment_max_bytes ||
      writer_->end_offset() <= kFileHeaderSize) {
    return Status::OK();
  }
  return Roll();
}

Status SessionStore::Roll() {
  // Seal: everything in the active segment becomes durable before the hint
  // claims to describe it.
  TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
  ++stats_.fsyncs;
  const std::uint64_t sealed_id = active_id_;
  const std::uint64_t sealed_size = writer_->end_offset();
  TOPKPKG_RETURN_IF_ERROR(WriteHintFile(env(), HintPath(sealed_id),
                                        sealed_size,
                                        pending_hint_.CollectSorted()));
  {
    Status closed = writer_->Close();
    if (!closed.ok()) {
      writer_.reset();
      return closed;
    }
  }
  Result<RecordLogWriter> next = RecordLogWriter::Open(
      SegmentPath(sealed_id + 1), /*truncate=*/true, env());
  Status dir_synced = next.ok() ? env()->SyncDir(path_) : next.status();
  if (!next.ok() || !dir_synced.ok()) {
    // Abort the roll: drop the half-made segment and resume appending to
    // the sealed one. Its hint goes stale the moment a new record lands —
    // the size check at the next open detects that and falls back to a
    // scan, so the stale hint is harmless.
    if (next.ok()) {
      Status ignored = std::move(next).value().Close();
      (void)ignored;
    }
    Status removed = env()->RemoveFile(SegmentPath(sealed_id + 1));
    (void)removed;
    Result<RecordLogWriter> reopened = RecordLogWriter::Open(
        SegmentPath(sealed_id), /*truncate=*/false, env());
    if (reopened.ok()) {
      writer_ =
          std::make_unique<RecordLogWriter>(std::move(reopened).value());
    } else {
      writer_.reset();
    }
    return dir_synced;
  }
  segments_[sealed_id].data_bytes = sealed_size;
  writer_ = std::make_unique<RecordLogWriter>(std::move(next).value());
  active_id_ = sealed_id + 1;
  segments_[active_id_].data_bytes = writer_->end_offset();
  pending_hint_.Clear();
  // The seal's fsync drained the group-commit window.
  ObserveWindowDrain(puts_since_sync_);
  puts_since_sync_ = 0;
  ++stats_.segment_rolls;
  Metrics().rolls->Increment();
  RefreshDerivedStats();
  return Status::OK();
}

bool SessionStore::ColdSegmentWantsCompaction() const {
  for (const auto& [id, info] : segments_) {
    if (id == active_id_) continue;
    if (info.data_bytes <= kFileHeaderSize) continue;
    const std::uint64_t payload = info.data_bytes - kFileHeaderSize;
    const std::uint64_t dead = payload - info.live_bytes;
    if (dead > 0 && static_cast<double>(dead) / static_cast<double>(payload) >=
                        opts_.compact_dead_ratio) {
      return true;
    }
  }
  return false;
}

Status SessionStore::CompactCold(bool automatic) {
  std::vector<std::uint64_t> cold;
  for (const auto& [id, info] : segments_) {
    if (id != active_id_) cold.push_back(id);
  }
  if (cold.empty()) return Status::OK();
  // Pin the active segment first, whatever the FsyncPolicy: the merge drops
  // cold records that newer active records supersede, so those newer
  // records must be durable before the merge commits — otherwise power loss
  // could erase the new version *and* the compaction already erased the
  // old, recovering to a state that never existed.
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
  ++stats_.fsyncs;
  ObserveWindowDrain(puts_since_sync_);
  puts_since_sync_ = 0;
  // Sum the cold inputs up front: once the merge commits, reclaimed space
  // is their on-disk footprint minus the single merged output.
  std::uint64_t cold_bytes_before = 0;
  for (const std::uint64_t id : cold) {
    cold_bytes_before += segments_[id].data_bytes;
  }
  // The merge replaces the LOWEST cold id. That choice is what makes
  // dropping tombstones crash-safe: the rename atomically swaps out the
  // oldest data (the only records a dropped tombstone could have shadowed),
  // so a crash during the later deletions leaves only a *suffix* of newer
  // original segments — and replaying the merge followed by a suffix of the
  // cold set (which still carries its own tombstones) converges to the same
  // keydir as the full original replay.
  const std::uint64_t merged_id = cold.front();  // Ascending map order.
  const std::string merged_tmp = SegmentPath(merged_id) + ".compact";

  // Merge every cold segment's live records (keydir order — deterministic,
  // so equal stores compact to byte-identical segments). Tombstones are
  // dropped: everything they could shadow is cold and merged here too, and
  // the active segment only holds newer records.
  std::map<Key, KeydirEntry> patch;
  std::vector<HintEvent> hint_events;
  std::uint64_t merged_size = 0;
  {
    TOPKPKG_ASSIGN_OR_RETURN(
        RecordLogWriter rewriter,
        RecordLogWriter::Open(merged_tmp, /*truncate=*/true, env()));
    for (const auto& [key, entry] : keydir_) {
      if (entry.segment_id == active_id_) continue;
      RecordLogReader reader(SegmentPath(entry.segment_id));
      TOPKPKG_ASSIGN_OR_RETURN(Record rec, reader.ReadAt(entry.offset));
      TOPKPKG_ASSIGN_OR_RETURN(
          const std::uint64_t offset,
          rewriter.Append(rec.session_id, rec.kind, rec.payload));
      patch[key] = KeydirEntry{merged_id, offset, rec.StoredSize()};
      hint_events.push_back(
          HintEvent{rec.session_id, rec.kind, offset, rec.StoredSize()});
    }
    TOPKPKG_RETURN_IF_ERROR(TimedSync(rewriter));
    ++stats_.fsyncs;
    merged_size = rewriter.end_offset();
    TOPKPKG_RETURN_IF_ERROR(rewriter.Close());
  }
  // Drop the merged segment's old hint *before* the rename (with a
  // directory sync between): no state ever pairs the merged file with the
  // hint of the bytes it replaced. A crash in the window just means a scan.
  TOPKPKG_RETURN_IF_ERROR(env()->RemoveFile(HintPath(merged_id)));
  TOPKPKG_RETURN_IF_ERROR(env()->SyncDir(path_));
  TOPKPKG_RETURN_IF_ERROR(env()->RenameFile(merged_tmp, SegmentPath(merged_id)));

  // The rename committed — the merge *is* the store now, so the in-memory
  // view follows unconditionally and every remaining step is best-effort
  // (a failure here must not leave keydir_ pointing into replaced bytes).
  // The superseded segments go in ascending order, each pinned by a
  // directory sync, so a crash mid-cleanup leaves exactly the suffix shape
  // the tombstone-dropping argument above depends on.
  for (const auto& [key, entry] : patch) keydir_[key] = entry;
  segments_[merged_id] =
      SegmentInfo{merged_size,
                  merged_size > kFileHeaderSize
                      ? merged_size - kFileHeaderSize
                      : 0};
  Status pinned = env()->SyncDir(path_);
  (void)pinned;
  for (const std::uint64_t id : cold) {
    if (id == merged_id) continue;
    Status removed = env()->RemoveFile(SegmentPath(id));
    (void)removed;
    removed = env()->RemoveFile(HintPath(id));
    (void)removed;
    removed = env()->SyncDir(path_);
    (void)removed;
    segments_.erase(id);
  }
  Status hinted =
      WriteHintFile(env(), HintPath(merged_id), merged_size, hint_events);
  (void)hinted;
  Status dir_synced = env()->SyncDir(path_);
  (void)dir_synced;
  ++stats_.compactions;
  if (automatic) ++stats_.auto_compactions;
  Metrics().compactions->Increment();
  if (cold_bytes_before > merged_size) {
    Metrics().compact_bytes_reclaimed->Increment(cold_bytes_before -
                                                 merged_size);
  }
  RefreshDerivedStats();
  return Status::OK();
}

Status SessionStore::Compact() {
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  if (writer_->end_offset() > kFileHeaderSize) {
    TOPKPKG_RETURN_IF_ERROR(Roll());
  }
  return CompactCold(/*automatic=*/false);
}

Status SessionStore::Flush() {
  obs::ScopedLatency flush_lat(Metrics().flush_latency);
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  if (opts_.fsync_policy == FsyncPolicy::kInterval && puts_since_sync_ > 0) {
    TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
    ++stats_.fsyncs;
    ObserveWindowDrain(puts_since_sync_);
    puts_since_sync_ = 0;
  }
  return writer_->Flush();
}

Status SessionStore::MaybeFlush() {
  if (opts_.fsync_policy != FsyncPolicy::kInterval) return Status::OK();
  if (opts_.flush_interval_ms == 0 || puts_since_sync_ == 0) {
    return Status::OK();
  }
  if (NowMs(opts_) - window_opened_ms_ < opts_.flush_interval_ms) {
    return Status::OK();
  }
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
  ++stats_.fsyncs;
  ObserveWindowDrain(puts_since_sync_);
  puts_since_sync_ = 0;
  return Status::OK();
}

Status SessionStore::Sync() {
  TOPKPKG_RETURN_IF_ERROR(RequireWriter());
  TOPKPKG_RETURN_IF_ERROR(TimedSync(*writer_));
  ++stats_.fsyncs;
  ObserveWindowDrain(puts_since_sync_);
  puts_since_sync_ = 0;
  return Status::OK();
}

}  // namespace topkpkg::storage
