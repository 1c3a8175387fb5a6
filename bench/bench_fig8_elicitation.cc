// Reproduces Figure 8 (Sec. 5.6): elicitation effectiveness on the NBA-like
// dataset. For each feature count, a batch of hidden ground-truth utility
// functions is drawn; the recommender (MCMC sampling + EXP semantics,
// 5 recommended + 5 random packages per round) runs until its top-k list
// stabilizes, and we report the average number of clicks consumed.

#include <iostream>

#include "bench_common.h"

namespace {

using namespace topkpkg;  // NOLINT(build/namespaces)
using bench::MakePrior;
using bench::MakeWorkbench;
using bench::Scaled;

int Run() {
  const std::size_t kUsers = Scaled(15);  // Paper: 100 ground truths.
  const std::size_t kMaxRounds = 20;
  const std::size_t kStableRounds = 2;

  std::cout << "Figure 8: clicks until the top-k list stabilizes (NBA-like "
               "dataset, MCMC + EXP, 5 recommended + 5 random, "
            << kUsers << " hidden utility functions per point)\n\n";

  TablePrinter t({"#features", "avg #clicks", "min", "max",
                  "avg true-utility ratio vs optimum"});
  for (std::size_t m : {2u, 4u, 6u, 8u, 10u}) {
    auto wb = MakeWorkbench("NBA", 0, m, 3, 61 + m);
    if (!wb.ok()) {
      std::cerr << wb.status() << "\n";
      return 1;
    }
    prob::GaussianMixture prior = MakePrior(m, 1, 62 + m);
    topk::TopKPkgSearch oracle_search(wb->evaluator.get());

    Rng rng(63 + m);
    double total_clicks = 0.0;
    std::size_t min_clicks = kMaxRounds + 1;
    std::size_t max_clicks = 0;
    double total_ratio = 0.0;
    std::size_t ok_users = 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      Vec hidden = rng.UniformVector(m, -1.0, 1.0);
      recsys::RecommenderOptions opts;
      opts.num_recommended = 5;
      opts.num_random = 5;
      opts.ranking.k = 5;
      opts.ranking.sigma = 5;
      opts.ranking.limits.max_expansions = 20000;
      opts.ranking.limits.max_queue = 500;
      opts.ranking.limits.max_items_accessed = 600;
      opts.num_samples = Scaled(100);
      auto rec = recsys::PackageRecommender::Create(wb->evaluator.get(),
                                                    &prior, opts,
                                                    /*seed=*/1000 * m + u);
      if (!rec.ok()) {
        std::cerr << "user " << u << ": " << rec.status() << "\n";
        continue;
      }
      recsys::SimulatedUser user(hidden);
      // 0.6 overlap tolerates the jitter of budgeted searches over a finite
      // sample pool while still requiring a genuinely stable ranking.
      auto clicks = (*rec)->RunUntilConverged(user, kStableRounds, kMaxRounds,
                                              /*min_overlap=*/0.6);
      if (!clicks.ok()) {
        std::cerr << "user " << u << ": " << clicks.status() << "\n";
        continue;
      }
      ++ok_users;
      total_clicks += static_cast<double>(*clicks);
      min_clicks = std::min(min_clicks, *clicks);
      max_clicks = std::max(max_clicks, *clicks);

      // Quality: true utility of the learned top package vs the optimum.
      if (!(*rec)->current_top_k().empty()) {
        double got =
            wb->evaluator->Utility((*rec)->current_top_k()[0], hidden);
        auto best = oracle_search.Search(hidden, 1);
        if (best.ok() && !best->packages.empty() &&
            best->packages[0].utility > 0.0) {
          total_ratio += got / best->packages[0].utility;
        } else {
          total_ratio += 1.0;  // Degenerate optimum; count as matched.
        }
      }
    }
    if (ok_users == 0) continue;
    t.AddRow({std::to_string(m),
              TablePrinter::Fmt(total_clicks / ok_users, 2),
              std::to_string(min_clicks), std::to_string(max_clicks),
              TablePrinter::Fmt(total_ratio / ok_users, 3)});
  }
  t.Print(std::cout);
  std::cout << "\nPaper shape check: only a handful of clicks (single "
               "digits) are needed before the ranking stabilizes, across "
               "feature counts.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  topkpkg::bench::ParseBenchArgs(argc, argv);
  return Run();
}
