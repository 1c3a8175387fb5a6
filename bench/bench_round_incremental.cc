// Measures the incremental serving engine (ISSUE 2 / Sec. 3.4): a persistent
// sample pool whose violators-only replacement lets the ranking layer serve
// survivors' top lists from its SampleId-keyed cache instead of re-running
// the Top-k-Pkg search for the whole pool every round.
//   (1) Ranking-layer comparison over one identical evolving pool: per-round
//       wall-clock of the from-scratch PackageRanker vs the IncrementalRanker
//       across feedback-rate regimes (0%, 10%, 50% of the pool replaced per
//       round), with a bit-identical-result oracle check on every round.
//   (2) The full recommender loop: per-round RoundLog reuse and phase-timing
//       stats of the round engine, and its mean wall-clock per round.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "topkpkg/ranking/incremental_ranker.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/sampling/rejection_sampler.h"
#include "topkpkg/sampling/sample_pool.h"

namespace {

using namespace topkpkg;  // NOLINT(build/namespaces)
using bench::Scaled;

bool SameResult(const ranking::RankingResult& a,
                const ranking::RankingResult& b) {
  if (a.any_truncated != b.any_truncated ||
      a.packages.size() != b.packages.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.packages.size(); ++i) {
    if (!(a.packages[i].package == b.packages[i].package) ||
        a.packages[i].score != b.packages[i].score) {
      return false;
    }
  }
  return true;
}

int RunRankerComparison() {
  const std::size_t kItems = Scaled(3000);
  const std::size_t kDim = 4;
  const std::size_t kPool = Scaled(200);
  const std::size_t kRounds = 6;

  auto wb = bench::MakeWorkbench("UNI", kItems, kDim, /*phi=*/4, /*seed=*/7);
  if (!wb.ok()) {
    std::cerr << wb.status() << "\n";
    return 1;
  }
  prob::GaussianMixture prior = bench::MakePrior(kDim, 2, 8);
  sampling::ConstraintChecker unconstrained({});
  sampling::RejectionSampler sampler(&prior, &unconstrained);

  ranking::RankingOptions ropts;
  ropts.k = 5;
  ropts.sigma = 5;

  std::cout << "Incremental vs from-scratch ranking over one evolving pool "
            << "(pool=" << kPool << ", items=" << kItems << ", " << kRounds
            << " rounds per regime)\n\n";
  TablePrinter table({"violators/round", "scratch (ms avg)", "incr (ms avg)",
                      "speedup", "reuse rate"});

  for (double rate : {0.0, 0.1, 0.5}) {
    Rng rng(17);
    auto initial = sampler.Draw(kPool, rng);
    if (!initial.ok()) {
      std::cerr << initial.status() << "\n";
      return 1;
    }
    sampling::SamplePool pool(std::move(initial).value());
    ranking::PackageRanker scratch(wb->evaluator.get());
    ranking::IncrementalRanker incremental(wb->evaluator.get());

    // Warm the cache with the initial pool (the steady-state serving regime
    // Sec. 3.4 amortizes into; the from-scratch engine has no warm state).
    auto warm = incremental.Rank(pool, ranking::Semantics::kExp, ropts);
    if (!warm.ok()) {
      std::cerr << warm.status() << "\n";
      return 1;
    }

    const std::size_t violators_per_round =
        static_cast<std::size_t>(static_cast<double>(kPool) * rate + 0.5);
    double scratch_s = 0.0;
    double incr_s = 0.0;
    double reuse = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      // Feedback proxy: `rate` of the pool violates the round's new
      // preference and is replaced by fresh draws.
      std::vector<sampling::WeightedSample> fresh;
      if (violators_per_round > 0) {
        auto drawn = sampler.Draw(violators_per_round, rng);
        if (!drawn.ok()) {
          std::cerr << drawn.status() << "\n";
          return 1;
        }
        fresh = std::move(drawn).value();
      }
      pool.Replace(rng.SampleWithoutReplacement(kPool, violators_per_round),
                   std::move(fresh));

      Timer t_scratch;
      auto from_scratch =
          scratch.Rank(pool.samples(), ranking::Semantics::kExp, ropts);
      scratch_s += t_scratch.ElapsedSeconds();

      Timer t_incr;
      ranking::IncrementalRankStats stats;
      auto incr =
          incremental.Rank(pool, ranking::Semantics::kExp, ropts, &stats);
      incr_s += t_incr.ElapsedSeconds();

      if (!from_scratch.ok() || !incr.ok()) {
        std::cerr << "rank failed\n";
        return 1;
      }
      if (!SameResult(*from_scratch, *incr)) {
        std::cerr << "BUG: incremental result diverged from the "
                     "from-scratch oracle\n";
        return 1;
      }
      reuse += static_cast<double>(stats.searches_skipped) /
               static_cast<double>(pool.size());
    }
    double n = static_cast<double>(kRounds);
    table.AddRow({std::to_string(violators_per_round),
                  TablePrinter::Fmt(1e3 * scratch_s / n, 2),
                  TablePrinter::Fmt(1e3 * incr_s / n, 2),
                  TablePrinter::Fmt(scratch_s / incr_s, 2),
                  TablePrinter::Fmt(reuse / n, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nEvery round's incremental result was verified bit-identical "
               "to the from-scratch oracle.\n";
  return 0;
}

int RunRecommenderLoop() {
  const std::size_t kItems = Scaled(1000);
  const std::size_t kDim = 3;
  const std::size_t kRounds = 6;

  auto wb = bench::MakeWorkbench("UNI", kItems, kDim, /*phi=*/3, /*seed=*/9);
  if (!wb.ok()) {
    std::cerr << wb.status() << "\n";
    return 1;
  }
  prob::GaussianMixture prior = bench::MakePrior(kDim, 2, 10);
  recsys::SimulatedUser user({0.8, 0.4, -0.3});

  recsys::RecommenderOptions opts;
  opts.num_recommended = 5;
  opts.num_random = 5;
  opts.num_samples = Scaled(200);
  opts.sampler = recsys::SamplerKind::kRejection;

  std::cout << "\nRecommender loop: per-round RoundLog reuse stats "
            << "(pool=" << opts.num_samples << ", " << kRounds
            << " rounds)\n\n";
  TablePrinter table({"round", "reused", "resampled", "skipped searches",
                      "dedup hits", "dedup rate", "maintain (ms)",
                      "sample (ms)", "rank (ms)"});
  auto rec = recsys::PackageRecommender::Create(wb->evaluator.get(), &prior,
                                                opts, /*seed=*/21);
  if (!rec.ok()) {
    std::cerr << rec.status() << "\n";
    return 1;
  }
  double round_s = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Timer t;
    auto log = (*rec)->RunRound(user);
    round_s += t.ElapsedSeconds();
    if (!log.ok()) {
      std::cerr << log.status() << "\n";
      return 1;
    }
    // Dedup hit rate: searches answered by an identical-weight twin within
    // the same round, over all searches the round would otherwise run.
    const std::uint64_t dedup_total =
        log->searches_deduped + log->searches_unique;
    table.AddRow({std::to_string(round), std::to_string(log->samples_reused),
                  std::to_string(log->samples_resampled),
                  std::to_string(log->searches_skipped),
                  std::to_string(log->searches_deduped),
                  TablePrinter::Fmt(dedup_total > 0
                                        ? static_cast<double>(
                                              log->searches_deduped) /
                                              static_cast<double>(dedup_total)
                                        : 0.0,
                                    3),
                  TablePrinter::Fmt(1e3 * log->maintain_seconds, 2),
                  TablePrinter::Fmt(1e3 * log->sample_seconds, 2),
                  TablePrinter::Fmt(1e3 * log->rank_seconds, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nround engine: "
            << TablePrinter::Fmt(1e3 * round_s / kRounds, 2) << " ms/round\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  topkpkg::bench::ParseBenchArgs(argc, argv);
  int rc = RunRankerComparison();
  if (rc != 0) return rc;
  return RunRecommenderLoop();
}
