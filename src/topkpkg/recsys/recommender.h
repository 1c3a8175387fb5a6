#ifndef TOPKPKG_RECSYS_RECOMMENDER_H_
#define TOPKPKG_RECSYS_RECOMMENDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "topkpkg/common/random.h"
#include "topkpkg/common/status.h"
#include "topkpkg/model/package.h"
#include "topkpkg/pref/preference_set.h"
#include "topkpkg/prob/gaussian_mixture.h"
#include "topkpkg/ranking/incremental_ranker.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/recsys/simulated_user.h"
#include "topkpkg/sampling/importance_sampler.h"
#include "topkpkg/sampling/mcmc_sampler.h"
#include "topkpkg/sampling/rejection_sampler.h"
#include "topkpkg/sampling/sample_pool.h"

namespace topkpkg::storage {
class SessionStore;
}

namespace topkpkg::recsys {

enum class SamplerKind { kRejection, kImportance, kMcmc };

const char* SamplerKindName(SamplerKind s);

struct RecommenderOptions {
  // Presentation mix (Sec. 2.2): exploit with the current best packages,
  // explore with random ones.
  std::size_t num_recommended = 5;
  std::size_t num_random = 5;
  // Target sample pool size per round.
  std::size_t num_samples = 300;
  SamplerKind sampler = SamplerKind::kMcmc;
  ranking::Semantics semantics = ranking::Semantics::kExp;
  // `ranking.package_filter`, the optional Sec. 7 schema predicate, applies
  // to every presented package: the searches behind the recommended ones
  // and the random explore slots.
  ranking::RankingOptions ranking;
  // The sampler settings every sampler kind runs with. The `base` copies
  // nested in `mcmc` and `importance` must stay default; Create refuses
  // anything else.
  sampling::SamplerOptions sampler_base;
  sampling::McmcSamplerOptions mcmc;
  sampling::ImportanceSamplerOptions importance;
};

// One elicitation round's record.
struct RoundLog {
  std::vector<model::Package> presented;
  std::vector<Vec> presented_vectors;
  std::size_t num_recommended = 0;  // First entries are the exploit slots.
  std::size_t clicked = 0;
  std::vector<model::Package> top_k;  // Current best list after sampling.
  // Overlap (TopKOverlap) between this round's top-k and the previous one;
  // top_k_changed is overlap < 1.0. RunUntilConverged's stability check
  // reads the same field, so the two never disagree.
  double top_k_overlap = 0.0;
  bool top_k_changed = true;
  sampling::SampleStats sampling_stats;
  // Incremental-engine reuse accounting.
  std::size_t samples_reused = 0;     // Pool survivors kept this round.
  std::size_t samples_resampled = 0;  // Fresh posterior draws this round.
  std::size_t searches_skipped = 0;   // Top lists served from the cache.
  // Unique-weight dedup inside this round's search phase: of the samples
  // that needed a search, how many were duplicates served by the ranker's
  // in-call memo vs distinct weight vectors actually walked. What makes the
  // batched-search (and memo) wins attributable per round.
  std::size_t searches_deduped = 0;
  std::size_t searches_unique = 0;
  // Per-phase wall-clock (seconds).
  double maintain_seconds = 0.0;  // Violator scan + pool surgery.
  double sample_seconds = 0.0;    // Fresh sample draws.
  double rank_seconds = 0.0;      // Per-sample searches + aggregation.
};

// Overlap |a ∩ b| / |a ∪ b| of two top-k package lists (1.0 when both are
// empty) — the single stability metric behind RoundLog::top_k_overlap,
// RoundLog::top_k_changed, and RunUntilConverged's convergence test.
double TopKOverlap(const std::vector<model::Package>& a,
                   const std::vector<model::Package>& b);

// The interactive package recommender (Sec. 2): maintains the Gaussian
// mixture prior plus the elicited PreferenceSet, keeps a posterior sample
// pool alive across rounds and replaces only its feedback violators each
// round (Sec. 3.4), ranks packages under the configured semantics, presents
// top + random packages, and folds the user's click back into the preference
// DAG as "clicked ≻ every other presented package".
class PackageRecommender {
 public:
  // RoundLogs the recommender retains — newest rounds win — and Checkpoint()
  // persists alongside the session state.
  static constexpr std::size_t kMaxRoundHistory = 64;

  // The one construction path: validates `options` (and the evaluator /
  // prior wiring) and returns InvalidArgument naming the offending field
  // instead of asserting or misbehaving later. `evaluator` and `prior` must
  // outlive the recommender.
  static Result<std::unique_ptr<PackageRecommender>> Create(
      const model::PackageEvaluator* evaluator,
      const prob::GaussianMixture* prior, RecommenderOptions options,
      uint64_t seed);

  // Executes one full round against a simulated user. On cyclic feedback the
  // conflicting click is skipped (the paper re-elicits in that case).
  Result<RoundLog> RunRound(const SimulatedUser& user);

  // Runs rounds until the recommended top-k list is stable for
  // `stable_rounds` consecutive rounds (or `max_rounds` is hit); returns the
  // number of clicks (= rounds) consumed, the Fig. 8 metric. A round counts
  // as stable when RoundLog::top_k_overlap is at least `min_overlap`
  // (1.0 = lists must be identical; lower values tolerate the jitter of
  // sampling + budgeted search).
  Result<std::size_t> RunUntilConverged(const SimulatedUser& user,
                                        std::size_t stable_rounds,
                                        std::size_t max_rounds,
                                        double min_overlap = 1.0);

  const pref::PreferenceSet& feedback() const { return feedback_; }
  const std::vector<model::Package>& current_top_k() const {
    return current_top_k_;
  }
  // The persistent sample pool (empty until the first round).
  const sampling::SamplePool& pool() const { return pool_; }
  // Retained RoundLogs, oldest first (at most kMaxRoundHistory).
  const std::vector<RoundLog>& round_history() const { return history_; }

  // --- durable sessions (storage/session_store.h) ------------------------
  //
  // Checkpoint writes the session's full serving state — feedback DAG,
  // sample pool with its stable SampleIds, the ranking layer's top-list
  // cache, RoundLog history, RNG stream position and the noise/fallback
  // bookkeeping — under `session_id`. Restore loads it back into a
  // recommender constructed with the *same* evaluator, prior, options and
  // code version (a config fingerprint is verified), after which the next
  // RunRound continues exactly as the uninterrupted session would:
  // bit-identical recommendations, survivors reused, top lists served from
  // the warm cache instead of a cold full redraw.
  //
  // Checkpoints are crash-atomic as a unit: the state records alternate
  // between two kind slots by checkpoint parity and the meta record — one
  // atomic append, written last — commits the sequence that selects the
  // slot, so a crash anywhere mid-Checkpoint only dirties the slot the
  // *next* generation owns and Restore falls back to the last committed
  // checkpoint. FailedPrecondition is reserved for stores whose committed
  // slot was damaged externally.
  Status Checkpoint(storage::SessionStore& store,
                    std::uint64_t session_id) const;
  Status Restore(const storage::SessionStore& store,
                 std::uint64_t session_id);

 private:
  PackageRecommender(const model::PackageEvaluator* evaluator,
                     const prob::GaussianMixture* prior,
                     RecommenderOptions options, uint64_t seed);

  Result<std::vector<sampling::WeightedSample>> DrawSamples(
      const sampling::ConstraintChecker& checker, std::size_t n,
      sampling::SampleStats* stats);
  // DrawSamples with the unreachable-region fallback: on ResourceExhausted
  // the draw retries unconstrained (prior-only) so a noisy, practically
  // empty valid region degrades gracefully instead of failing the round.
  // `used_fallback`, when provided, reports whether the fallback fired.
  Result<std::vector<sampling::WeightedSample>> DrawSamplesWithFallback(
      const sampling::ConstraintChecker& checker, std::size_t n,
      sampling::SampleStats* stats, bool* used_fallback = nullptr);

  Result<ranking::RankingResult> RankIncremental(
      const sampling::ConstraintChecker& checker,
      const ranking::RankingOptions& ropts, RoundLog* log);

  // Compact fingerprint of the construction-time configuration, stamped
  // into checkpoints so Restore can reject a differently-configured host.
  std::string ConfigFingerprint() const;

  const model::PackageEvaluator* evaluator_;
  const prob::GaussianMixture* prior_;
  RecommenderOptions options_;
  Rng rng_;
  pref::PreferenceSet feedback_;
  std::vector<model::Package> current_top_k_;
  std::vector<RoundLog> history_;
  // Monotone per-session checkpoint counter (the torn-checkpoint detector).
  mutable std::uint64_t checkpoint_seq_ = 0;
  // Incremental-engine state: the cross-round sample pool and the stateful
  // ranker holding the SampleId-keyed top-list cache.
  sampling::SamplePool pool_;
  ranking::IncrementalRanker ranker_;
  // The ImportanceSampler the current round's draw built (reset per round).
  // Survivor reweighting reuses it instead of re-running Create()'s grid
  // decomposition — the round's replacement draw already paid that cost and
  // Create() is deterministic, so the proposal is identical either way.
  std::optional<sampling::ImportanceSampler> round_is_sampler_;
  // Constraints (by "better|worse" key pair) the pool has already been
  // maintained against. Under the Sec. 7 noise model the per-round eviction
  // coin is flipped only for constraints *not* in this set — re-flipping for
  // old constraints every round would compound survivor eviction to
  // 1-(1-ψ)^(x·rounds) and drain the pool toward the hard posterior.
  std::unordered_set<std::string> seen_constraint_keys_;
  // Ids of pool samples that came from an unconstrained fallback draw and
  // have not been validated since. Those never had any (noise-)acceptance
  // applied, so the next noisy maintenance pass scans them (and only them)
  // against the full constraint set; importance-sampler pools holding such
  // samples redraw fully (their weights are relative to the prior-only
  // proposal). The hard-constraint batched scan self-heals regardless.
  std::unordered_set<sampling::SampleId> fallback_sample_ids_;
};

}  // namespace topkpkg::recsys

#endif  // TOPKPKG_RECSYS_RECOMMENDER_H_
