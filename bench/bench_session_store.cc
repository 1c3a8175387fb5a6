// Measures the durable-session storage layer (ISSUE 5):
//   (1) sequential append throughput of the record log (records/s and MB/s
//       at several payload sizes — the Bitcask-shape sweet spot the design
//       banks on),
//   (2) recovery: keydir-rebuild replay time of a multi-session store, and
//       a full PackageRecommender Checkpoint/Restore round trip,
//   (3) compaction: live-vs-dead bytes of a multi-checkpoint store before
//       and after Compact(), and the rewrite's wall-clock,
//   (4) durability: acked-put throughput under each FsyncPolicy, and a
//       group-commit sweep showing the fsync-count / loss-window trade the
//       kInterval policy buys (ISSUE 8).

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/recsys/simulated_user.h"
#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/record_log.h"
#include "topkpkg/storage/session_store.h"

namespace {

using namespace topkpkg;  // NOLINT(build/namespaces)
using bench::Scaled;

std::string BenchPath(const std::string& name) {
  std::string path = "/tmp/topkpkg_bench_" + name + ".tkps";
  std::filesystem::remove_all(path);  // Stores are segment directories now.
  return path;
}

int RunAppendThroughput() {
  std::cout << "\n== sequential append throughput (flushed per record) ==\n";
  TablePrinter table({"payload bytes", "records", "records/s", "MB/s",
                      "file MB"});
  for (std::size_t payload_size : {64u, 1024u, 16384u}) {
    const std::size_t records = Scaled(20000);
    const std::string path = BenchPath("append");
    auto store = storage::SessionStore::Open(path);
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    const std::string payload(payload_size, 'x');
    Timer timer;
    for (std::size_t i = 0; i < records; ++i) {
      // Rotating keys: a fleet of sessions checkpointing in turn.
      Status st = store->Put(i % 128, 1 + (i % 4), payload);
      if (!st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
    }
    const double seconds = timer.ElapsedSeconds();
    const double mb = static_cast<double>(store->stats().file_bytes) / 1e6;
    table.AddRow({std::to_string(payload_size), std::to_string(records),
                  TablePrinter::Fmt(static_cast<double>(records) / seconds, 0),
                  TablePrinter::Fmt(mb / seconds, 1),
                  TablePrinter::Fmt(mb, 1)});
    std::filesystem::remove_all(path);
  }
  table.Print(std::cout);
  return 0;
}

int RunRecoveryReplay() {
  std::cout << "\n== recovery: replay (keydir rebuild) of a fleet store ==\n";
  TablePrinter table({"sessions", "records", "file MB", "replay ms",
                      "live keys"});
  for (std::size_t sessions : {64u, 512u}) {
    const std::string path = BenchPath("replay");
    const std::size_t rounds = Scaled(40);
    {
      auto store = storage::SessionStore::Open(path);
      if (!store.ok()) {
        std::cerr << store.status() << "\n";
        return 1;
      }
      const std::string payload(2048, 'x');
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s < sessions; ++s) {
          Status st = store->Put(s, 1 + (round % 4), payload);
          if (!st.ok()) {
            std::cerr << st << "\n";
            return 1;
          }
        }
      }
    }
    Timer timer;
    auto reopened = storage::SessionStore::Open(path);
    const double ms = 1e3 * timer.ElapsedSeconds();
    if (!reopened.ok()) {
      std::cerr << reopened.status() << "\n";
      return 1;
    }
    table.AddRow(
        {std::to_string(sessions), std::to_string(rounds * sessions),
         TablePrinter::Fmt(
             static_cast<double>(reopened->stats().file_bytes) / 1e6, 1),
         TablePrinter::Fmt(ms, 2),
         std::to_string(reopened->keydir_size())});
    std::filesystem::remove_all(path);
  }
  table.Print(std::cout);
  return 0;
}

int RunCheckpointRestore() {
  std::cout << "\n== recommender checkpoint / restore round trip ==\n";
  auto wb = bench::MakeWorkbench("UNI", Scaled(2000), 3, /*phi=*/3,
                                 /*seed=*/7);
  if (!wb.ok()) {
    std::cerr << wb.status() << "\n";
    return 1;
  }
  prob::GaussianMixture prior = bench::MakePrior(3, 2, 8);
  recsys::RecommenderOptions opts;
  opts.num_samples = Scaled(200);
  auto rec = recsys::PackageRecommender::Create(wb->evaluator.get(), &prior,
                                                opts, 11);
  if (!rec.ok()) {
    std::cerr << rec.status() << "\n";
    return 1;
  }
  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  for (int round = 0; round < 3; ++round) {
    auto log = (*rec)->RunRound(user);
    if (!log.ok()) {
      std::cerr << log.status() << "\n";
      return 1;
    }
  }
  const std::string path = BenchPath("checkpoint");
  auto store = storage::SessionStore::Open(path);
  if (!store.ok()) {
    std::cerr << store.status() << "\n";
    return 1;
  }
  Timer ckpt_timer;
  Status st = (*rec)->Checkpoint(*store, 1);
  const double ckpt_ms = 1e3 * ckpt_timer.ElapsedSeconds();
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto restored = recsys::PackageRecommender::Create(wb->evaluator.get(),
                                                     &prior, opts, 0);
  if (!restored.ok()) {
    std::cerr << restored.status() << "\n";
    return 1;
  }
  Timer restore_timer;
  st = (*restored)->Restore(*store, 1);
  const double restore_ms = 1e3 * restore_timer.ElapsedSeconds();
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto resumed = (*restored)->RunRound(user);
  if (!resumed.ok()) {
    std::cerr << resumed.status() << "\n";
    return 1;
  }
  std::cout << "  checkpoint " << TablePrinter::Fmt(ckpt_ms, 2) << " ms ("
            << store->stats().live_bytes << " live bytes), restore "
            << TablePrinter::Fmt(restore_ms, 2)
            << " ms; resumed round reused " << resumed->samples_reused
            << " samples, served " << resumed->searches_skipped
            << " searches from the cache\n";
  std::filesystem::remove_all(path);
  return 0;
}

int RunCompaction() {
  std::cout << "\n== compaction of a multi-checkpoint store ==\n";
  TablePrinter table({"checkpoints", "before MB", "dead %", "after MB",
                      "compact ms"});
  for (std::size_t checkpoints : {8u, 32u}) {
    const std::string path = BenchPath("compact");
    auto store = storage::SessionStore::Open(path);
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    const std::string payload(Scaled(32768), 'x');
    for (std::size_t c = 0; c < checkpoints; ++c) {
      for (std::uint64_t session = 0; session < 16; ++session) {
        for (storage::RecordKind kind = 1; kind <= 5; ++kind) {
          Status st = store->Put(session, kind, payload);
          if (!st.ok()) {
            std::cerr << st << "\n";
            return 1;
          }
        }
      }
    }
    const double before_mb =
        static_cast<double>(store->stats().file_bytes) / 1e6;
    const double dead_pct =
        100.0 * static_cast<double>(store->stats().dead_bytes) /
        static_cast<double>(store->stats().file_bytes);
    Timer timer;
    Status st = store->Compact();
    const double ms = 1e3 * timer.ElapsedSeconds();
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    table.AddRow({std::to_string(checkpoints), TablePrinter::Fmt(before_mb, 1),
                  TablePrinter::Fmt(dead_pct, 1),
                  TablePrinter::Fmt(
                      static_cast<double>(store->stats().file_bytes) / 1e6, 1),
                  TablePrinter::Fmt(ms, 2)});
    std::filesystem::remove_all(path);
  }
  table.Print(std::cout);
  return 0;
}

// The same rotating-session put burst under each durability policy. The
// interesting column is fsyncs: kNone only syncs at seals, kEveryPut pays
// one per acked mutation, kInterval amortizes one across the group.
int RunFsyncPolicySweep() {
  std::cout << "\n== durability: acked-put throughput by fsync policy ==\n";
  TablePrinter table({"policy", "records", "records/s", "fsyncs",
                      "loss window"});
  struct Case {
    const char* name;
    storage::FsyncPolicy policy;
    const char* loss;
  };
  for (const Case& c : {Case{"none", storage::FsyncPolicy::kNone,
                             "unsynced tail"},
                        Case{"interval(32)", storage::FsyncPolicy::kInterval,
                             "<= 31 puts"},
                        Case{"every-put", storage::FsyncPolicy::kEveryPut,
                             "0 puts"}}) {
    const std::size_t records = Scaled(2000);
    const std::string path = BenchPath("fsync");
    storage::SessionStoreOptions opts;
    opts.fsync_policy = c.policy;
    opts.group_commit_puts = 32;
    auto store = storage::SessionStore::Open(path, opts);
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    const std::string payload(1024, 'x');
    Timer timer;
    for (std::size_t i = 0; i < records; ++i) {
      Status st = store->Put(i % 128, 1 + (i % 4), payload);
      if (!st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
    }
    const double seconds = timer.ElapsedSeconds();
    table.AddRow({c.name, std::to_string(records),
                  TablePrinter::Fmt(static_cast<double>(records) / seconds, 0),
                  std::to_string(store->stats().fsyncs), c.loss});
    std::filesystem::remove_all(path);
  }
  table.Print(std::cout);
  return 0;
}

// Checkpoint-burst shape (a fleet of sessions checkpointing in turn) at
// several kInterval group sizes: group 1 degenerates to every-put, larger
// groups trade a bounded loss window for fewer fsyncs.
int RunGroupCommitSweep() {
  std::cout << "\n== durability: group-commit sweep (kInterval burst) ==\n";
  TablePrinter table({"group", "puts", "puts/s", "fsyncs", "loss window"});
  for (std::size_t group : {1u, 8u, 32u, 128u}) {
    const std::size_t puts = Scaled(2000);
    const std::string path = BenchPath("group");
    storage::SessionStoreOptions opts;
    opts.fsync_policy = storage::FsyncPolicy::kInterval;
    opts.group_commit_puts = group;
    auto store = storage::SessionStore::Open(path, opts);
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    const std::string payload(1024, 'x');
    Timer timer;
    for (std::size_t i = 0; i < puts; ++i) {
      Status st = store->Put(i % 64, 1 + (i % 4), payload);
      if (!st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
    }
    const double seconds = timer.ElapsedSeconds();
    table.AddRow({std::to_string(group), std::to_string(puts),
                  TablePrinter::Fmt(static_cast<double>(puts) / seconds, 0),
                  std::to_string(store->stats().fsyncs),
                  "<= " + std::to_string(group - 1) + " puts"});
    std::filesystem::remove_all(path);
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  std::cout << "bench_session_store (scale=" << bench::BenchScale() << ")\n";
  if (int rc = RunAppendThroughput()) return rc;
  if (int rc = RunRecoveryReplay()) return rc;
  if (int rc = RunCheckpointRestore()) return rc;
  if (int rc = RunCompaction()) return rc;
  if (int rc = RunFsyncPolicySweep()) return rc;
  if (int rc = RunGroupCommitSweep()) return rc;
  return 0;
}
