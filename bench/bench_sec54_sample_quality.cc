// Reproduces the Sec. 5.4 sample-quality study: with enough samples, the
// top-5 package lists produced by the three sampling methods converge, and
// the lists under different ranking semantics are strongly correlated. We
// print pairwise top-5 overlap (|A∩B|/5) across samplers and semantics.

#include <iostream>
#include <map>
#include <set>
#include <string>

#include "bench_common.h"
#include "topkpkg/ranking/rankers.h"

namespace {

using namespace topkpkg;  // NOLINT(build/namespaces)
using bench::MakePrior;
using bench::MakeWorkbench;
using bench::Scaled;

std::set<std::string> TopKeys(const ranking::RankingResult& r) {
  std::set<std::string> keys;
  for (const auto& rp : r.packages) keys.insert(rp.package.Key());
  return keys;
}

double Overlap(const std::set<std::string>& a, const std::set<std::string>& b,
               std::size_t k) {
  std::size_t common = 0;
  for (const auto& key : a) common += b.count(key);
  return static_cast<double>(common) / static_cast<double>(k);
}

int Run() {
  // Paper setting: 4 features, 2 Gaussians, many feedback preferences,
  // thousands of samples (scaled).
  const std::size_t kFeatures = 4;
  const std::size_t kSamples = Scaled(2000);
  const std::size_t kFeedback = Scaled(100);
  const std::size_t kTopK = 5;

  auto wb = MakeWorkbench("UNI", Scaled(5000), kFeatures, 3, 31);
  if (!wb.ok()) {
    std::cerr << wb.status() << "\n";
    return 1;
  }
  prob::GaussianMixture prior = MakePrior(kFeatures, 2, 33);
  auto prefs = bench::MakeReachablePrefs(*wb->evaluator, prior, 500,
                                         kFeedback, 3, 32);
  sampling::ConstraintChecker checker(prefs);

  std::cout << "Sec. 5.4 sample quality: " << kSamples << " samples, "
            << kFeedback << " feedback preferences, " << kFeatures
            << " features, 2 Gaussians.\n\n";

  const std::vector<recsys::SamplerKind> kinds = {
      recsys::SamplerKind::kRejection, recsys::SamplerKind::kImportance,
      recsys::SamplerKind::kMcmc};
  const std::vector<ranking::Semantics> semantics = {
      ranking::Semantics::kExp, ranking::Semantics::kTkp,
      ranking::Semantics::kMpo};

  // Top-5 list per (sampler, semantics).
  std::map<std::string, std::set<std::string>> lists;
  ranking::PackageRanker ranker(wb->evaluator.get());
  for (auto kind : kinds) {
    Rng rng(34);
    auto samples = bench::DrawByKind(kind, prior, checker, kSamples, rng,
                                     nullptr);
    if (!samples.ok()) {
      std::cerr << recsys::SamplerKindName(kind) << ": " << samples.status()
                << "\n";
      return 1;
    }
    ranking::RankingOptions opts;
    opts.k = kTopK;
    opts.sigma = kTopK;
    opts.limits.max_expansions = 100000;
    opts.limits.max_queue = 2000;
    opts.limits.max_items_accessed = 2000;
    auto per_sample = ranker.ComputeSampleLists(*samples, opts);
    if (!per_sample.ok()) {
      std::cerr << per_sample.status() << "\n";
      return 1;
    }
    std::vector<const ranking::SampleTopList*> per_sample_ptrs;
    for (const auto& list : *per_sample) per_sample_ptrs.push_back(&list);
    for (auto sem : semantics) {
      auto result = ranker.Aggregate(*samples, per_sample_ptrs, sem, opts);
      lists[std::string(recsys::SamplerKindName(kind)) + "/" +
            ranking::SemanticsName(sem)] = TopKeys(result);
    }
  }

  std::cout << "=== Top-5 overlap across samplers (same semantics) ===\n";
  TablePrinter across_samplers({"semantics", "RS vs IS", "RS vs MS",
                                "IS vs MS"});
  for (auto sem : semantics) {
    std::string s = ranking::SemanticsName(sem);
    across_samplers.AddRow(
        {s,
         TablePrinter::Fmt(Overlap(lists["RS/" + s], lists["IS/" + s], kTopK),
                           2),
         TablePrinter::Fmt(Overlap(lists["RS/" + s], lists["MS/" + s], kTopK),
                           2),
         TablePrinter::Fmt(Overlap(lists["IS/" + s], lists["MS/" + s], kTopK),
                           2)});
  }
  across_samplers.Print(std::cout);

  std::cout << "\n=== Top-5 overlap across semantics (same sampler) ===\n";
  TablePrinter across_semantics({"sampler", "EXP vs TKP", "EXP vs MPO",
                                 "TKP vs MPO"});
  for (auto kind : kinds) {
    std::string k = recsys::SamplerKindName(kind);
    across_semantics.AddRow(
        {k,
         TablePrinter::Fmt(
             Overlap(lists[k + "/EXP"], lists[k + "/TKP"], kTopK), 2),
         TablePrinter::Fmt(
             Overlap(lists[k + "/EXP"], lists[k + "/MPO"], kTopK), 2),
         TablePrinter::Fmt(
             Overlap(lists[k + "/TKP"], lists[k + "/MPO"], kTopK), 2)});
  }
  across_semantics.Print(std::cout);

  std::cout << "\nPaper shape check (Sec. 5.4): the samplers agree with each "
               "other under a fixed semantics, and TKP/MPO correlate "
               "strongly with each other; EXP may diverge from both — the "
               "paper notes a frequently-appearing package need not have "
               "high expected utility.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  topkpkg::bench::ParseBenchArgs(argc, argv);
  return Run();
}
