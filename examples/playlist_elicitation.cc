// Playlist building with noisy implicit feedback (the paper's Last.fm
// motivation + the Sec. 7 noise model): the listener sometimes mis-clicks,
// yet the elicitation loop still converges to playlists they like. Prints a
// round-by-round trace of the interaction.
//
// Build & run:  ./build/examples/playlist_elicitation

#include <iostream>

#include "topkpkg/topkpkg.h"

using namespace topkpkg;  // NOLINT(build/namespaces) — example binary.

int main() {
  // 500 synthetic songs: energy (avg), duration minutes (sum — the listener
  // wants a playlist that is not too long), popularity (avg).
  auto songs = std::move(data::GenerateUniform(500, 3, 11)).value();
  auto profile = std::move(model::Profile::Parse("avg,sum,avg")).value();
  model::PackageEvaluator evaluator(&songs, &profile, /*phi=*/6);

  // Hidden taste: high energy, shorter playlists, popularity irrelevant.
  Vec hidden = {0.9, -0.5, 0.05};
  // ψ = 0.85: roughly one in seven clicks is a mistake.
  recsys::SimulatedUser listener(hidden, /*noise_psi=*/0.85);

  Rng rng(12);
  prob::GaussianMixture prior = prob::GaussianMixture::Random(3, 2, 0.5, rng);

  recsys::RecommenderOptions opts;
  opts.num_recommended = 4;
  opts.num_random = 4;
  opts.num_samples = 250;
  opts.ranking.k = 4;
  opts.ranking.sigma = 4;
  // Interactive recommendations trade exactness for latency: bound the
  // branch-and-bound so each round stays fast (results may be marked
  // truncated, which is fine for presentation lists).
  opts.ranking.limits.max_expansions = 200000;
  opts.ranking.limits.max_queue = 2000;
  opts.ranking.limits.max_items_accessed = 1000;
  // Tell the sampler feedback may be noisy too (Sec. 7): don't hard-reject
  // every violating sample.
  opts.sampler_base.noise.psi = 0.85;
  // Schema predicate (Sec. 7): a playlist needs at least 3 songs.
  opts.ranking.package_filter = [](const model::Package& p) {
    return p.size() >= 3;
  };
  auto rec = recsys::PackageRecommender::Create(&evaluator, &prior, opts,
                                                /*seed=*/13);
  if (!rec.ok()) {
    std::cerr << rec.status() << "\n";
    return 1;
  }

  for (int round = 1; round <= 8; ++round) {
    auto log = (*rec)->RunRound(listener);
    if (!log.ok()) {
      std::cerr << log.status() << "\n";
      return 1;
    }
    std::cout << "Round " << round << ": presented "
              << log->presented.size() << " playlists ("
              << log->num_recommended << " recommended + "
              << log->presented.size() - log->num_recommended
              << " random), listener clicked #" << log->clicked
              << (log->clicked < log->num_recommended ? " (recommended)"
                                                      : " (exploration)")
              << "\n";
    if (!log->top_k.empty()) {
      const model::Package& best = log->top_k[0];
      Vec v = evaluator.FeatureVector(best);
      std::cout << "    current best playlist: " << best.size()
                << " songs, energy=" << v[0] << ", length score=" << v[1]
                << ", true utility=" << listener.TrueUtility(v) << "\n";
    }
  }

  std::cout << "\nFinal recommended playlists:\n";
  for (const auto& p : (*rec)->current_top_k()) {
    Vec v = evaluator.FeatureVector(p);
    std::cout << "  [" << p.Key() << "]  true utility "
              << listener.TrueUtility(v) << "\n";
  }
  std::cout << "Feedback graph: " << (*rec)->feedback().num_nodes()
            << " packages, " << (*rec)->feedback().num_edges()
            << " preference edges\n";
  return 0;
}
