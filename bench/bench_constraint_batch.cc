// Batched constraint checking: vectors/s for per-sample
// ConstraintChecker::IsValid against the struct-of-arrays IsValidBatch scan
// the recommender's Sec. 3.4 pool maintenance runs. Cross-checks the two
// verdict counts and exits 1 on a mismatch.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "topkpkg/sampling/constraint_checker.h"

namespace {

using namespace topkpkg;  // NOLINT(build/namespaces)
using bench::MakePrior;
using bench::MakeReachablePrefs;
using bench::MakeWorkbench;
using bench::Scaled;

constexpr std::size_t kFeatures = 4;

struct Workload {
  bench::Workbench wb;
  prob::GaussianMixture prior;
  std::vector<pref::Preference> prefs;
};

Workload MakeWorkload(std::size_t num_prefs, uint64_t seed) {
  auto wb = MakeWorkbench("UNI", Scaled(2000), kFeatures, 3, seed);
  if (!wb.ok()) {
    std::cerr << "workbench: " << wb.status() << "\n";
    std::exit(1);
  }
  prob::GaussianMixture prior = MakePrior(kFeatures, 2, seed + 1);
  std::vector<pref::Preference> prefs = MakeReachablePrefs(
      *wb->evaluator, prior, Scaled(200), num_prefs, 3, seed + 2);
  return Workload{std::move(wb).value(), std::move(prior), std::move(prefs)};
}

void RunBatchChecker(const Workload& work, std::size_t n) {
  sampling::ConstraintChecker checker(work.prefs);
  Rng rng(77);
  std::vector<sampling::WeightedSample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(
        sampling::WeightedSample{rng.UniformVector(kFeatures, -1.0, 1.0), 1.0});
  }
  const sampling::WeightBatch batch =
      sampling::WeightBatch::FromSamples(samples);

  Timer scalar_timer;
  std::size_t scalar_valid = 0;
  for (const auto& s : samples) {
    if (checker.IsValid(s.w)) ++scalar_valid;
  }
  const double scalar_secs = scalar_timer.ElapsedSeconds();

  Timer batch_timer;
  std::vector<std::uint8_t> verdicts = checker.IsValidBatch(batch);
  const double batch_secs = batch_timer.ElapsedSeconds();
  std::size_t batch_valid = 0;
  for (std::uint8_t v : verdicts) batch_valid += v;
  if (batch_valid != scalar_valid) {
    std::cerr << "batch/scalar verdict mismatch\n";
    std::exit(1);
  }

  TablePrinter table({"kernel", "vectors/s", "speedup"});
  const double scalar_rate = static_cast<double>(n) / scalar_secs;
  const double batch_rate = static_cast<double>(n) / batch_secs;
  table.AddRow({"IsValid (scalar)", TablePrinter::Fmt(scalar_rate, 0),
                TablePrinter::Fmt(1.0, 2)});
  table.AddRow({"IsValidBatch (SoA)", TablePrinter::Fmt(batch_rate, 0),
                TablePrinter::Fmt(batch_rate / scalar_rate, 2)});
  std::cout << "\n== batched constraint checking, " << work.prefs.size()
            << " constraints x " << n << " vectors ==\n";
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  topkpkg::bench::ParseBenchArgs(argc, argv);
  Workload work = MakeWorkload(/*num_prefs=*/Scaled(30), /*seed=*/5);
  RunBatchChecker(work, Scaled(200000));
  return 0;
}
