// Shopping-cart assembly (the paper's Amazon motivation): bundle a phone,
// accessories and a data plan. Shows (a) how the three ranking semantics can
// disagree under weight uncertainty, and (b) why the hard-constraint
// baseline is brittle compared to learned soft trade-offs.
//
// Build & run:  ./build/examples/shopping_cart

#include <iostream>

#include "topkpkg/topkpkg.h"

using namespace topkpkg;  // NOLINT(build/namespaces) — example binary.

namespace {

const char* const kNames[] = {
    "budget phone",   "flagship phone", "mid-range phone", "case",
    "charger",        "earbuds",        "premium earbuds", "2GB plan",
    "10GB plan",      "unlimited plan",
};

}  // namespace

int main() {
  // price (sum: cheaper better), rating (avg: higher better).
  auto table = std::move(model::ItemTable::Create(
      {
          {199.0, 3.9}, {999.0, 4.8}, {449.0, 4.4}, {25.0, 4.2},
          {19.0, 4.0},  {79.0, 4.1},  {249.0, 4.7}, {10.0, 3.5},
          {25.0, 4.3},  {45.0, 4.6},
      },
      {"price", "rating"})).value();
  auto profile = std::move(model::Profile::Parse("sum,avg")).value();
  model::PackageEvaluator evaluator(&table, &profile, /*phi=*/4);

  // Uncertainty over the shopper's price/quality trade-off: a bimodal prior
  // (bargain hunters vs quality seekers).
  std::vector<prob::Gaussian> comps;
  comps.push_back(
      std::move(prob::Gaussian::Spherical({-0.8, 0.3}, 0.15)).value());
  comps.push_back(
      std::move(prob::Gaussian::Spherical({-0.2, 0.9}, 0.15)).value());
  auto prior =
      std::move(prob::GaussianMixture::Uniform(std::move(comps))).value();

  sampling::ConstraintChecker no_feedback({});
  sampling::McmcSampler sampler(&prior, &no_feedback);
  Rng rng(5);
  auto samples = sampler.Draw(2000, rng);
  if (!samples.ok()) {
    std::cerr << samples.status() << "\n";
    return 1;
  }

  ranking::PackageRanker ranker(&evaluator);
  ranking::RankingOptions opts;
  opts.k = 3;
  opts.sigma = 3;
  auto lists = ranker.ComputeSampleLists(*samples, opts);
  if (!lists.ok()) {
    std::cerr << lists.status() << "\n";
    return 1;
  }

  auto describe = [&](const model::Package& p) {
    std::string out = "{";
    for (std::size_t i = 0; i < p.items().size(); ++i) {
      if (i > 0) out += ", ";
      out += kNames[p.items()[i]];
    }
    return out + "}";
  };

  std::vector<const ranking::SampleTopList*> list_ptrs;
  for (const auto& list : *lists) list_ptrs.push_back(&list);
  for (auto sem : {ranking::Semantics::kExp, ranking::Semantics::kTkp,
                   ranking::Semantics::kMpo}) {
    auto result = ranker.Aggregate(*samples, list_ptrs, sem, opts);
    std::cout << "Top carts under " << ranking::SemanticsName(sem) << ":\n";
    for (const auto& rp : result.packages) {
      std::cout << "  " << describe(rp.package) << "  score " << rp.score
                << "\n";
    }
    std::cout << "\n";
  }

  // The hard-constraint alternative: "max avg rating with total <= $B".
  std::cout << "Hard-constraint baseline (max avg rating, budget B):\n";
  for (double budget : {60.0, 300.0, 1100.0}) {
    baseline::HardConstraintQuery q;
    q.objective_feature = 1;
    q.budget_feature = 0;
    q.budget = budget;
    auto best = baseline::SolveHardConstraintExact(evaluator, q);
    if (best.ok()) {
      std::cout << "  B=$" << budget << " -> " << describe(best->package)
                << "  avg rating score " << best->utility << "\n";
    } else {
      std::cout << "  B=$" << budget << " -> " << best.status() << "\n";
    }
  }
  std::cout << "\nNote how the baseline's answer swings with the guessed "
               "budget, while the utility model trades price for quality "
               "smoothly.\n";
  return 0;
}
