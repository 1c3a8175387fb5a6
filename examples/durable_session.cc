// Durable sessions: checkpoint an interactive recommendation session to a
// Bitcask-style append-only store, "kill" the process state, restore into a
// fresh recommender, and resume incrementally — same sample identities,
// warm top-list cache, no cold redraw. Finishes with a snapshot compaction
// and prints the store's live/dead accounting.
//
// Build & run:  ./build/example_durable_session [store-dir]
// (default store dir: /tmp/topkpkg_durable_session.tkps; the segment
// directory is left behind so `./build/store_fsck <dir>` can inspect it —
// CI does exactly that.)

#include <filesystem>
#include <iostream>
#include <string>

#include "topkpkg/topkpkg.h"

using namespace topkpkg;  // NOLINT(build/namespaces) — example binary.

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/topkpkg_durable_session.tkps";
  std::filesystem::remove_all(path);

  // A small catalog + the usual probabilistic-preference setup.
  auto table = std::move(data::GenerateUniform(60, 3, 7)).value();
  auto profile = std::move(model::Profile::Parse("sum,avg,min")).value();
  model::PackageEvaluator evaluator(&table, &profile, /*phi=*/3);
  Rng prior_rng(8);
  prob::GaussianMixture prior =
      prob::GaussianMixture::Random(3, 2, 0.5, prior_rng);
  recsys::RecommenderOptions opts;
  opts.num_samples = 120;
  recsys::SimulatedUser user({0.8, 0.4, -0.2});

  // Serve a few rounds, checkpointing after every one — the serving-fleet
  // shape: sessions survive process death at round granularity.
  auto session = recsys::PackageRecommender::Create(&evaluator, &prior, opts,
                                                    /*seed=*/11);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  {
    auto store = storage::SessionStore::Open(path);
    if (!store.ok()) {
      std::cerr << store.status() << "\n";
      return 1;
    }
    for (int round = 1; round <= 3; ++round) {
      auto log = (*session)->RunRound(user);
      if (!log.ok()) {
        std::cerr << log.status() << "\n";
        return 1;
      }
      if (Status st = (*session)->Checkpoint(*store, /*session_id=*/1);
          !st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
      std::cout << "round " << round << ": top package {"
                << (log->top_k.empty() ? std::string("-")
                                       : log->top_k[0].Key())
                << "}, reused " << log->samples_reused << "/"
                << (log->samples_reused + log->samples_resampled)
                << " samples — checkpointed\n";
    }
    // The store handle closes here; the recommender below is a brand-new
    // object, exactly what a restarted process would hold.
  }

  auto store = storage::SessionStore::Open(path);
  if (!store.ok()) {
    std::cerr << store.status() << "\n";
    return 1;
  }
  auto restored = recsys::PackageRecommender::Create(&evaluator, &prior, opts,
                                                     /*seed=*/0);
  if (!restored.ok()) {
    std::cerr << restored.status() << "\n";
    return 1;
  }
  if (Status st = (*restored)->Restore(*store, 1); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto resumed = (*restored)->RunRound(user);
  if (!resumed.ok()) {
    std::cerr << resumed.status() << "\n";
    return 1;
  }
  std::cout << "restored session resumed: reused " << resumed->samples_reused
            << " samples, served " << resumed->searches_skipped
            << " top lists from the warm cache (resampled only "
            << resumed->samples_resampled << ")\n";
  if (resumed->samples_reused == 0 || resumed->searches_skipped == 0) {
    std::cerr << "expected the restored session to resume incrementally\n";
    return 1;
  }
  if (Status st = (*restored)->Checkpoint(*store, 1); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  // Four checkpoints live in the log now; only the last one is live data.
  const auto before = store->stats();
  if (Status st = store->Compact(); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "compaction: " << before.file_bytes << " -> "
            << store->stats().file_bytes << " bytes (" << before.dead_bytes
            << " dead bytes dropped)\n";
  std::cout << "store left at " << path << " — inspect with store_fsck\n";
  return 0;
}
