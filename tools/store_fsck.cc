// store_fsck — dumps and verifies a segmented session store.
//
// Given a store *directory*, walks every segment log in id order in scan
// mode (CRC failures are counted, not fatal), rebuilds the keydir the way
// SessionStore::Open would, and cross-checks each hint file against the
// scan: a hint must decode, match its segment's size, and list exactly the
// latest event per key plus every whole-session tombstone. Stale or absent
// hints are notes (the engine scan-falls-back and rewrites them); a hint
// that *disagrees* with its segment's contents is corruption. Per record
// kind it prints the records scanned and the live keys and live bytes
// (headers included) the keydir holds, so a store of one checkpointed
// session reads as that checkpoint's composition.
//
// Exit codes: 0 = clean, 1 = unreadable/usage, 2 = integrity findings
// (CRC failures, hint/scan disagreement, or a torn tail unless
// --allow-torn-tail — recovery truncates torn tails, so a store checked
// after a clean open never has one).
//
// Usage: store_fsck [--verbose] [--allow-torn-tail] <store-dir>
//
// CI runs it both against the store example_durable_session writes and
// after every store_crashgen crash-recovery cycle, so the on-disk format
// the library produces — including mid-crash layouts — is fsck-verified
// every build.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/hint_file.h"
#include "topkpkg/storage/record_log.h"
#include "topkpkg/storage/session_store.h"

namespace {

using topkpkg::Result;
using topkpkg::Status;
using topkpkg::storage::HintEvent;
using topkpkg::storage::HintFileContents;
using topkpkg::storage::kFileHeaderSize;
using topkpkg::storage::kSessionTombstone;
using topkpkg::storage::kTombstoneBit;
using topkpkg::storage::LoadHintFile;
using topkpkg::storage::ParseSegmentFileName;
using topkpkg::storage::Record;
using topkpkg::storage::RecordKind;
using topkpkg::storage::RecordLogReader;
using topkpkg::storage::ReplayStats;
using topkpkg::storage::SegmentFileName;
using topkpkg::storage::SegmentHintName;

const char* KindName(RecordKind kind) {
  if (kind == kSessionTombstone) return "session-tombstone";
  if ((kind & kTombstoneBit) != 0) return "tombstone";
  // Checkpoint state records alternate between the base kinds and
  // base + kKindGenSlotOffset (even-sequence generation slot); both slots
  // carry the same payload format.
  const bool alt = kind > topkpkg::storage::kKindGenSlotOffset &&
                   kind <= topkpkg::storage::kKindGenSlotOffset +
                               topkpkg::storage::kKindRoundHistory;
  const RecordKind base =
      alt ? kind - topkpkg::storage::kKindGenSlotOffset : kind;
  switch (base) {
    case topkpkg::storage::kKindPreferenceSet:
      return alt ? "preference-set (alt slot)" : "preference-set";
    case topkpkg::storage::kKindSamplePool:
      return alt ? "sample-pool (alt slot)" : "sample-pool";
    case topkpkg::storage::kKindTopListCache:
      return alt ? "top-list-cache (alt slot)" : "top-list-cache";
    case topkpkg::storage::kKindRoundHistory:
      return alt ? "round-history (alt slot)" : "round-history";
    case topkpkg::storage::kKindRecommenderMeta:
      return "recommender-meta";
    default:
      return "unknown";
  }
}

using Key = std::pair<std::uint64_t, RecordKind>;

// Shadow of the store's in-memory index: latest live record per key, with
// the segment it lives in (for the dead-byte split).
struct KeydirShadow {
  std::map<Key, std::uint64_t> live;  // key -> stored size

  void Apply(const Record& rec) {
    if (rec.kind == kSessionTombstone) {
      auto it = live.lower_bound({rec.session_id, 0});
      while (it != live.end() && it->first.first == rec.session_id) {
        it = live.erase(it);
      }
    } else if ((rec.kind & kTombstoneBit) != 0) {
      live.erase({rec.session_id, rec.kind & ~kTombstoneBit});
    } else {
      live[{rec.session_id, rec.kind}] = rec.StoredSize();
    }
  }
};

// What a correct hint for the scanned segment must contain — the same
// latest-event ∪ session-tombstone set SessionStore::PendingHint tracks.
struct ExpectedHint {
  std::map<Key, HintEvent> latest;
  std::vector<HintEvent> session_tombs;

  void Track(const Record& rec) {
    HintEvent ev{rec.session_id, rec.kind, rec.offset, rec.StoredSize()};
    if (rec.kind == kSessionTombstone) {
      session_tombs.push_back(ev);
      return;
    }
    latest[{rec.session_id, rec.kind & ~kTombstoneBit}] = ev;
  }

  std::vector<HintEvent> Collect() const {
    std::vector<HintEvent> out;
    for (const auto& [key, ev] : latest) out.push_back(ev);
    out.insert(out.end(), session_tombs.begin(), session_tombs.end());
    std::sort(out.begin(), out.end(),
              [](const HintEvent& a, const HintEvent& b) {
                return a.offset < b.offset;
              });
    return out;
  }
};

bool SameEvent(const HintEvent& a, const HintEvent& b) {
  return a.session_id == b.session_id && a.kind == b.kind &&
         a.offset == b.offset && a.stored_size == b.stored_size;
}

struct Findings {
  std::size_t crc_failures = 0;
  std::size_t torn_tails = 0;
  std::size_t hint_mismatches = 0;
  std::size_t notes = 0;  // Benign: stale/invalid hints, leftover .compact.
};

int FsckDirectory(const std::string& path, bool verbose,
                  bool allow_torn_tail) {
  namespace fs = std::filesystem;

  // Inventory the directory: segments, hints, the LOCK file, leftovers.
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, bool> has_hint;
  Findings findings;
  bool saw_lock = false;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "LOCK") {
      saw_lock = true;
      continue;
    }
    if (const std::uint64_t id = ParseSegmentFileName(name); id != 0) {
      ids.push_back(id);
      continue;
    }
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".hint") == 0) {
      const std::uint64_t id =
          ParseSegmentFileName(name.substr(0, name.size() - 5) + ".tkps");
      if (id != 0) {
        has_hint[id] = true;
        continue;
      }
    }
    if (name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".compact") == 0) {
      std::printf("  note: leftover %s (a compaction died before its "
                  "rename; the next open removes it)\n",
                  name.c_str());
      ++findings.notes;
      continue;
    }
    std::printf("  note: unrecognized file %s\n", name.c_str());
    ++findings.notes;
  }
  if (ec) {
    std::fprintf(stderr, "store_fsck: cannot list %s: %s\n", path.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(ids.begin(), ids.end());

  std::printf("store_fsck: %s (%zu segment%s%s)\n", path.c_str(), ids.size(),
              ids.size() == 1 ? "" : "s", saw_lock ? "" : ", no LOCK file");

  KeydirShadow keydir;
  std::map<RecordKind, std::size_t> by_kind;
  std::uint64_t total_payload = 0;
  std::uint64_t total_stored = 0;  // Record bytes incl. headers, all segments.
  std::size_t total_records = 0;

  for (const std::uint64_t id : ids) {
    const std::string seg_path = path + "/" + SegmentFileName(id);
    const std::uint64_t file_size = fs::file_size(seg_path, ec);

    ExpectedHint expected;
    ReplayStats stats;
    RecordLogReader reader(seg_path);
    Status st = reader.Replay(
        [&](const Record& rec) {
          ++by_kind[rec.kind];
          expected.Track(rec);
          keydir.Apply(rec);
          if (verbose) {
            std::printf("  [%06" PRIu64 "] @%-10" PRIu64 " session=%-6"
                        PRIu64 " kind=%x (%s) payload=%zu bytes\n",
                        id, rec.offset, rec.session_id, rec.kind,
                        KindName(rec.kind), rec.payload.size());
          }
          return Status::OK();
        },
        &stats, /*strict=*/false);
    if (!st.ok()) {
      std::fprintf(stderr, "store_fsck: segment %06" PRIu64 ": %s\n", id,
                   st.ToString().c_str());
      return 1;
    }
    findings.crc_failures += stats.crc_failures;
    if (stats.torn_tail) ++findings.torn_tails;
    total_payload += stats.payload_bytes;
    if (stats.tail_offset > kFileHeaderSize) {
      total_stored += stats.tail_offset - kFileHeaderSize;
    }
    total_records += stats.records;

    // Hint cross-check: decode, size-match, then event-by-event equality
    // against what the scan says the hint must contain.
    const char* hint_state = "none (active or scanned at next open)";
    if (has_hint[id]) {
      Result<HintFileContents> hint =
          LoadHintFile(path + "/" + SegmentHintName(id));
      if (!hint.ok()) {
        hint_state = "INVALID (scan fallback + rewrite at next open)";
        ++findings.notes;
      } else if (hint->segment_file_size != file_size) {
        hint_state = "stale size (scan fallback + rewrite at next open)";
        ++findings.notes;
      } else {
        const std::vector<HintEvent> want = expected.Collect();
        const bool equal =
            hint->events.size() == want.size() &&
            std::equal(hint->events.begin(), hint->events.end(),
                       want.begin(), SameEvent);
        if (equal) {
          hint_state = "valid";
        } else {
          hint_state = "MISMATCH (hint disagrees with segment contents)";
          ++findings.hint_mismatches;
        }
      }
    }

    std::printf("  segment %06" PRIu64 "  %8" PRIu64 " bytes  %5zu records"
                "  crc-fail %zu  torn %s  hint: %s\n",
                id, file_size, stats.records, stats.crc_failures,
                stats.torn_tail ? "YES" : "no", hint_state);
  }

  std::uint64_t live_bytes = 0;
  for (const auto& [key, size] : keydir.live) live_bytes += size;
  // Both sides include record headers, so superseded records *and*
  // tombstones land in dead — the same split the engine's stats report.
  const std::uint64_t dead_bytes = total_stored - live_bytes;

  struct KindLive {
    std::size_t keys = 0;
    std::uint64_t bytes = 0;
  };
  std::map<RecordKind, KindLive> live_by_kind;
  for (const auto& [key, size] : keydir.live) {
    KindLive& kind_live = live_by_kind[key.second];
    ++kind_live.keys;
    kind_live.bytes += size;
  }
  std::printf("  records            %zu\n", total_records);
  for (const auto& [kind, count] : by_kind) {
    const KindLive& kind_live = live_by_kind[kind];
    std::printf("    kind %-4x %-26s %6zu records  %5zu live keys  %9" PRIu64
                " live bytes\n",
                kind, KindName(kind), count, kind_live.keys, kind_live.bytes);
  }
  std::printf("  live keys          %zu\n", keydir.live.size());
  std::printf("  payload bytes      %" PRIu64 "\n", total_payload);
  std::printf("  live bytes         %" PRIu64 "\n", live_bytes);
  std::printf("  dead bytes         %" PRIu64 " (%.1f%%)\n", dead_bytes,
              total_stored > 0 ? 100.0 * static_cast<double>(dead_bytes) /
                                     static_cast<double>(total_stored)
                               : 0.0);
  std::printf("  crc failures       %zu\n", findings.crc_failures);
  std::printf("  torn tails         %zu\n", findings.torn_tails);
  std::printf("  hint mismatches    %zu\n", findings.hint_mismatches);

  if (findings.crc_failures > 0) {
    std::fprintf(stderr, "store_fsck: FAIL — %zu CRC failure(s)\n",
                 findings.crc_failures);
    return 2;
  }
  if (findings.hint_mismatches > 0) {
    std::fprintf(stderr,
                 "store_fsck: FAIL — %zu hint file(s) disagree with their "
                 "segment's contents\n",
                 findings.hint_mismatches);
    return 2;
  }
  if (findings.torn_tails > 0 && !allow_torn_tail) {
    std::fprintf(stderr,
                 "store_fsck: FAIL — %zu torn tail(s) (re-open with "
                 "SessionStore to truncate, or pass --allow-torn-tail)\n",
                 findings.torn_tails);
    return 2;
  }
  std::printf("store_fsck: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  bool allow_torn_tail = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--allow-torn-tail") == 0) {
      allow_torn_tail = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "store_fsck: unknown flag %s\n", argv[i]);
      return 1;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: store_fsck [--verbose] [--allow-torn-tail] "
                 "<store-dir>\n");
    return 1;
  }

  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return FsckDirectory(path, verbose, allow_torn_tail);
  }
  if (std::filesystem::is_regular_file(path, ec)) {
    // The pre-segmented single-file format, which SessionStore::Open
    // refuses with this same message.
    std::fprintf(stderr,
                 "store_fsck: session store: %s is a regular file — the "
                 "pre-segmented single-file format; this version keeps a "
                 "directory of segments and does not migrate old stores\n",
                 path);
    return 1;
  }
  std::fprintf(stderr, "store_fsck: %s: no such store\n", path);
  return 1;
}
