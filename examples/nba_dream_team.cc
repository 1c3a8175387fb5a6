// NBA dream-team assembly: the paper's evaluation domain as an application.
// Build 5-player packages from the NBA-like career table, where a scout's
// taste trades off total scoring, playmaking, rebounding and foul trouble.
// The scout never states weights: the system elicits them from clicks.
//
// Build & run:  ./build/examples/nba_dream_team

#include <iostream>

#include "topkpkg/topkpkg.h"

using namespace topkpkg;  // NOLINT(build/namespaces) — example binary.

int main() {
  // Features: points (sum, want high), assists (sum, high), rebounds (sum,
  // high), fouls (sum, want LOW), fg_pct (avg, high).
  auto full = data::GenerateNbaLike();
  if (!full.ok()) {
    std::cerr << full.status() << "\n";
    return 1;
  }
  // Column indices in the synthesizer: points=2, rebounds=3, assists=4,
  // fouls=8, fg_pct=12.
  model::ItemTable table = full->SelectFeatures({2, 3, 4, 8, 12});
  auto profile = std::move(model::Profile::Parse("sum,sum,sum,sum,avg"))
                     .value();
  model::PackageEvaluator evaluator(&table, &profile, /*phi=*/5);

  // The scout's hidden taste: loves scoring and playmaking, hates fouls.
  recsys::SimulatedUser scout({0.8, 0.4, 0.6, -0.7, 0.3});

  Rng rng(2024);
  prob::GaussianMixture prior =
      prob::GaussianMixture::Random(5, 2, 0.5, rng);

  recsys::RecommenderOptions opts;
  opts.num_recommended = 5;
  opts.num_random = 5;
  opts.num_samples = 200;
  opts.ranking.k = 5;
  opts.ranking.sigma = 5;
  // Bound the per-sample package search: interactive latency beats
  // exactness during elicitation.
  opts.ranking.limits.max_expansions = 200000;
  opts.ranking.limits.max_queue = 2000;
  opts.ranking.limits.max_items_accessed = 1200;
  auto rec = recsys::PackageRecommender::Create(&evaluator, &prior, opts,
                                                /*seed=*/99);
  if (!rec.ok()) {
    std::cerr << rec.status() << "\n";
    return 1;
  }

  std::cout << "Eliciting the scout's preferences";
  auto clicks = (*rec)->RunUntilConverged(scout, /*stable_rounds=*/2,
                                          /*max_rounds=*/15);
  if (!clicks.ok()) {
    std::cerr << "\n" << clicks.status() << "\n";
    return 1;
  }
  std::cout << " — converged after " << *clicks << " clicks.\n\n";

  std::cout << "Recommended 5-player rosters (player ids + career lines):\n";
  int rank = 1;
  for (const auto& roster : (*rec)->current_top_k()) {
    std::cout << "Roster " << rank++ << " (true utility "
              << scout.TrueUtility(evaluator.FeatureVector(roster)) << "):\n";
    for (model::ItemId player : roster.items()) {
      std::cout << "  player#" << player
                << "  pts=" << static_cast<long>(table.value(player, 0))
                << "  reb=" << static_cast<long>(table.value(player, 1))
                << "  ast=" << static_cast<long>(table.value(player, 2))
                << "  fouls=" << static_cast<long>(table.value(player, 3))
                << "  fg%=" << table.value(player, 4) << "\n";
    }
    if (rank > 3) break;  // Show the top three rosters.
  }
  return 0;
}
