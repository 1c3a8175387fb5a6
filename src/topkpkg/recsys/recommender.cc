#include "topkpkg/recsys/recommender.h"

#include <algorithm>
#include <utility>

#include "topkpkg/common/serde.h"
#include "topkpkg/obs/metrics.h"
#include "topkpkg/obs/trace.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::recsys {

namespace {

// Round-level registry handles. Phase histograms share one family keyed by
// a phase label so a scrape shows the round's time budget side by side.
struct RecsysMetrics {
  obs::Counter* rounds;
  obs::Counter* pool_scanned;
  obs::Counter* pool_violators;
  obs::Histogram* phase_sample;
  obs::Histogram* phase_maintain;
  obs::Histogram* phase_rank;
};

const RecsysMetrics& Metrics() {
  static const RecsysMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* mm = new RecsysMetrics();
    mm->rounds =
        reg.GetCounter("topkpkg_recsys_rounds_total", "Feedback rounds run");
    mm->pool_scanned =
        reg.GetCounter("topkpkg_recsys_pool_scanned_total",
                       "Pool samples scanned during Sec. 3.4 maintenance");
    mm->pool_violators =
        reg.GetCounter("topkpkg_recsys_pool_violators_total",
                       "Pool samples marked for replacement as constraint "
                       "violators (before target-shedding)");
    const char* help = "Per-round phase wall time";
    mm->phase_sample = reg.GetHistogram("topkpkg_round_phase_seconds", help,
                                        "phase=\"sample\"");
    mm->phase_maintain = reg.GetHistogram("topkpkg_round_phase_seconds", help,
                                          "phase=\"maintain\"");
    mm->phase_rank = reg.GetHistogram("topkpkg_round_phase_seconds", help,
                                      "phase=\"rank\"");
    return mm;
  }();
  return *m;
}

}  // namespace

const char* SamplerKindName(SamplerKind s) {
  switch (s) {
    case SamplerKind::kRejection:
      return "RS";
    case SamplerKind::kImportance:
      return "IS";
    case SamplerKind::kMcmc:
      return "MS";
  }
  return "?";
}

double TopKOverlap(const std::vector<model::Package>& a,
                   const std::vector<model::Package>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t common = 0;
  for (const auto& p : a) {
    for (const auto& q : b) {
      if (p == q) {
        ++common;
        break;
      }
    }
  }
  std::size_t uni = a.size() + b.size() - common;
  return uni == 0 ? 1.0 : static_cast<double>(common) /
                              static_cast<double>(uni);
}

PackageRecommender::PackageRecommender(const model::PackageEvaluator* evaluator,
                                       const prob::GaussianMixture* prior,
                                       RecommenderOptions options,
                                       uint64_t seed)
    : evaluator_(evaluator),
      prior_(prior),
      options_(std::move(options)),
      rng_(seed),
      ranker_(evaluator) {}

Result<std::unique_ptr<PackageRecommender>> PackageRecommender::Create(
    const model::PackageEvaluator* evaluator,
    const prob::GaussianMixture* prior, RecommenderOptions options,
    uint64_t seed) {
  auto bad = [](const std::string& field, const std::string& why) {
    return Status::InvalidArgument("RecommenderOptions." + field + ": " + why);
  };
  if (evaluator == nullptr) {
    return Status::InvalidArgument(
        "PackageRecommender::Create: evaluator must not be null");
  }
  if (prior == nullptr) {
    return Status::InvalidArgument(
        "PackageRecommender::Create: prior must not be null");
  }
  if (prior->dim() != evaluator->table().num_features()) {
    return Status::InvalidArgument(
        "PackageRecommender::Create: prior dimensionality " +
        std::to_string(prior->dim()) + " != the item table's " +
        std::to_string(evaluator->table().num_features()) + " features");
  }
  if (evaluator->phi() == 0) {
    return Status::InvalidArgument(
        "PackageRecommender::Create: evaluator phi (max package size) "
        "must be at least 1");
  }
  if (options.num_samples == 0) {
    return bad("num_samples", "the sample pool must hold at least 1 sample");
  }
  if (options.num_recommended + options.num_random == 0) {
    return bad("num_recommended/num_random",
               "a round must present at least 1 package to click");
  }
  if (options.ranking.k == 0) return bad("ranking.k", "must be at least 1");
  if (options.semantics == ranking::Semantics::kTkp &&
      options.ranking.sigma == 0) {
    return bad("ranking.sigma",
               "TKP ranks by top-sigma membership; sigma must be at least 1");
  }
  // Every draw copies sampler_base over the samplers' nested `base`, so a
  // value set there would be silently ignored.
  auto is_default = [](const sampling::SamplerOptions& o) {
    const sampling::SamplerOptions d;
    return o.box_lo == d.box_lo && o.box_hi == d.box_hi &&
           o.max_attempts_per_sample == d.max_attempts_per_sample &&
           o.noise.psi == d.noise.psi;
  };
  const char* use_base =
      "overwritten by sampler_base at every draw; set sampler_base instead";
  if (!is_default(options.mcmc.base)) return bad("mcmc.base", use_base);
  if (!is_default(options.importance.base)) {
    return bad("importance.base", use_base);
  }
  const sampling::SamplerOptions& base = options.sampler_base;
  if (!(base.box_lo < base.box_hi)) {
    return bad("sampler_base.box_lo/box_hi",
               "weight box is empty (box_lo must be < box_hi)");
  }
  if (base.max_attempts_per_sample == 0) {
    return bad("sampler_base.max_attempts_per_sample", "must be at least 1");
  }
  if (!(base.noise.psi > 0.0) || base.noise.psi > 1.0) {
    return bad("sampler_base.noise.psi", "must be in (0, 1]");
  }
  if (options.sampler == SamplerKind::kImportance &&
      options.importance.grid_resolution == 0) {
    return bad("importance.grid_resolution", "must be at least 1");
  }
  if (options.sampler == SamplerKind::kMcmc && options.mcmc.thinning == 0) {
    return bad("mcmc.thinning", "must be at least 1");
  }
  return std::unique_ptr<PackageRecommender>(
      new PackageRecommender(evaluator, prior, std::move(options), seed));
}

Result<std::vector<sampling::WeightedSample>> PackageRecommender::DrawSamples(
    const sampling::ConstraintChecker& checker, std::size_t n,
    sampling::SampleStats* stats) {
  switch (options_.sampler) {
    case SamplerKind::kRejection: {
      sampling::RejectionSampler sampler(prior_, &checker,
                                         options_.sampler_base);
      return sampler.Draw(n, rng_, stats);
    }
    case SamplerKind::kImportance: {
      sampling::ImportanceSamplerOptions opts = options_.importance;
      opts.base = options_.sampler_base;
      TOPKPKG_ASSIGN_OR_RETURN(
          sampling::ImportanceSampler sampler,
          sampling::ImportanceSampler::Create(prior_, &checker, opts));
      // Stash the sampler (and the grid decomposition it paid for) so this
      // round's survivor reweighting can reuse it instead of re-running
      // Create(). A failed Draw below still leaves the stash valid: the
      // fallback path re-enters here with the unconstrained checker and
      // overwrites it with the sampler of whichever draw actually ran last.
      round_is_sampler_ = std::move(sampler);
      return round_is_sampler_->Draw(n, rng_, stats);
    }
    case SamplerKind::kMcmc: {
      sampling::McmcSamplerOptions opts = options_.mcmc;
      opts.base = options_.sampler_base;
      sampling::McmcSampler sampler(prior_, &checker, opts);
      return sampler.Draw(n, rng_, stats);
    }
  }
  return Status::InvalidArgument("PackageRecommender: unknown sampler kind");
}

Result<std::vector<sampling::WeightedSample>>
PackageRecommender::DrawSamplesWithFallback(
    const sampling::ConstraintChecker& checker, std::size_t n,
    sampling::SampleStats* stats, bool* used_fallback) {
  if (used_fallback != nullptr) *used_fallback = false;
  Result<std::vector<sampling::WeightedSample>> drawn =
      DrawSamples(checker, n, stats);
  if (!drawn.ok() && drawn.status().code() == StatusCode::kResourceExhausted) {
    // Noisy feedback can accumulate into a practically unreachable region
    // (every sample violates something and 1-(1-ψ)^x rejection fires almost
    // surely). Degrade gracefully: fall back to the prior for these draws —
    // exploration continues and future consistent clicks re-tighten things.
    // Static (immutable, read-only) so a stashed round_is_sampler_ built
    // against it never outlives its checker.
    static const sampling::ConstraintChecker unconstrained({});
    drawn = DrawSamples(unconstrained, n, stats);
    if (used_fallback != nullptr) *used_fallback = drawn.ok();
  }
  return drawn;
}

Result<ranking::RankingResult> PackageRecommender::RankIncremental(
    const sampling::ConstraintChecker& checker,
    const ranking::RankingOptions& ropts, RoundLog* log) {
  const std::size_t target = options_.num_samples;
  // Constraints entering the checker for the first time (the reduced set
  // only ever loses members as the DAG grows, so membership by key pair is
  // a faithful "new since last round" test). Keys are committed to
  // seen_constraint_keys_ only after the pool mutation below succeeds — a
  // failed round must leave the constraints "fresh" so the next round still
  // maintains the pool against them.
  std::vector<const pref::Preference*> fresh_constraints;
  std::vector<std::string> fresh_keys;
  for (const auto& c : checker.constraints()) {
    std::string key = c.better_key + '|' + c.worse_key;
    if (seen_constraint_keys_.find(key) == seen_constraint_keys_.end()) {
      fresh_constraints.push_back(&c);
      fresh_keys.push_back(std::move(key));
    }
  }
  sampling::PoolDelta delta;
  if (pool_.size() == 0) {
    // First round: fill the pool from the (prior, feedback) posterior.
    obs::ScopedSpan sample_span("sample");
    bool used_fallback = false;
    TOPKPKG_ASSIGN_OR_RETURN(
        std::vector<sampling::WeightedSample> fresh,
        DrawSamplesWithFallback(checker, target, &log->sampling_stats,
                                &used_fallback));
    log->sample_seconds = sample_span.Close();
    delta = pool_.Append(std::move(fresh));
    fallback_sample_ids_.clear();
    if (used_fallback) {
      fallback_sample_ids_.insert(delta.added_ids.begin(),
                                  delta.added_ids.end());
    }
  } else {
    // Sec. 3.4 maintenance: scan the pool against the full current
    // constraint set and replace only the violators. Survivors were drawn
    // from a posterior this feedback refines, so they still follow it.
    // (Rejection/MCMC samples carry weight 1 and are unaffected;
    // importance-pool survivors get their weights rescaled under the new
    // proposal after the Replace below.)
    obs::ScopedSpan maintain_span("maintain");
    std::vector<std::size_t> violators;
    const bool is_pool = options_.sampler == SamplerKind::kImportance;
    if (is_pool && !fallback_sample_ids_.empty()) {
      // Unconstrained fallback draws carry prior-only proposal weights and
      // were never validated; an importance pool holding them redraws fully
      // (the reweighting below assumes survivors were accepted under a
      // constraint-built proposal near the new one).
      violators.reserve(pool_.size());
      for (std::size_t i = 0; i < pool_.size(); ++i) violators.push_back(i);
    } else if (options_.sampler_base.noise.psi < 1.0) {
      // Sec. 7 noise: a sample violating x of the *new* constraints is
      // evicted with the same probability 1-(1-ψ)^x a sampler would reject
      // it. Old constraints already had their coin flipped when they
      // arrived (or at draw time), so they are not re-tested — survivors by
      // noise luck stay, exactly as a fresh noisy draw would keep them.
      // Exception: unconstrained fallback draws never had any acceptance
      // applied, so those samples (and only those — a second coin flip for
      // already-accepted survivors would compound) are checked against the
      // full constraint set once.
      const std::vector<pref::Preference>& all = checker.constraints();
      std::vector<const pref::Preference*> full_scan;
      if (!fallback_sample_ids_.empty()) {
        full_scan.reserve(all.size());
        for (const auto& c : all) full_scan.push_back(&c);
      }
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        const bool tainted =
            !fallback_sample_ids_.empty() &&
            fallback_sample_ids_.count(pool_.id(i)) > 0;
        const std::vector<const pref::Preference*>& to_check =
            tainted ? full_scan : fresh_constraints;
        std::size_t x = 0;
        for (const pref::Preference* c : to_check) {
          ++log->sampling_stats.constraint_checks;
          if (!pref::Satisfies(pool_.sample(i).w, *c)) ++x;
        }
        if (x > 0 && options_.sampler_base.noise.ShouldReject(x, rng_)) {
          violators.push_back(i);
        }
      }
    } else {
      // Hard constraints: scan against the full current set, not just the
      // new preferences. This costs O(pool × constraints) dot products —
      // noise next to the per-sample searches being avoided — and keeps the
      // pool self-healing when unconstrained fallback draws (or a psi
      // change) left samples that violate older constraints.
      std::vector<std::uint8_t> valid = checker.IsValidBatch(
          pool_.batch(), &log->sampling_stats.constraint_checks);
      for (std::size_t i = 0; i < valid.size(); ++i) {
        if (!valid[i]) violators.push_back(i);
      }
    }
    // Violator rate is counted before the target-shedding extension below:
    // shed survivors are healthy samples evicted for capacity, not
    // constraint violations.
    Metrics().pool_scanned->Increment(pool_.size());
    Metrics().pool_violators->Increment(violators.size());
    // Track a changed num_samples target: shed surplus survivors from the
    // pool's tail, or draw extra fresh samples below.
    std::size_t keep = pool_.size() - violators.size();
    if (keep > target) {
      std::vector<bool> marked(pool_.size(), false);
      for (std::size_t i : violators) marked[i] = true;
      for (std::size_t i = pool_.size(); i-- > 0 && keep > target;) {
        if (!marked[i]) {
          violators.push_back(i);
          --keep;
        }
      }
    }
    log->maintain_seconds = maintain_span.Close();

    std::vector<sampling::WeightedSample> fresh;
    bool used_fallback = false;
    if (target > keep) {
      obs::ScopedSpan sample_span("sample");
      TOPKPKG_ASSIGN_OR_RETURN(
          fresh, DrawSamplesWithFallback(checker, target - keep,
                                         &log->sampling_stats,
                                         &used_fallback));
      log->sample_seconds = sample_span.Close();
    }
    delta = pool_.Replace(std::move(violators), std::move(fresh));
    if (is_pool && !delta.surviving_ids.empty() &&
        (!fresh_constraints.empty() || used_fallback)) {
      // Sec. 3.4 reuse for importance pools: survivors still follow the
      // posterior, but their stored weights q = P/Q_old are relative to the
      // proposal they were drawn under, and this round's replacement draws
      // carry weights under the proposal *they* came from — aggregating
      // two scales together would bias the ranking. Rescale every survivor
      // under the replacement draw's proposal: the constraint-built one
      // normally, or the unconstrained (prior-only) one when this round's
      // draw degraded to the fallback — the same deterministic Create()
      // either draw path ran, so both subpopulations share one weight
      // scale. (Exact as Q_old → Q_new, the incremental-feedback regime —
      // is_reweight_test checks the resulting accepted distribution
      // against the full-redraw path's.) Cached top lists depend only on
      // the weight *vector* and stay valid; the ranking reads the new
      // weights from the pool.
      // The reweight span folds into maintain_seconds (it is Sec. 3.4 pool
      // upkeep, not fresh sampling) while still appearing as its own span
      // in a sampled trace.
      obs::ScopedSpan reweight_span("reweight", &log->maintain_seconds);
      // The round's replacement draw already built the sampler — grid
      // decomposition included — against exactly the proposal survivors
      // must be rescaled under (the constraint-built one normally, the
      // unconstrained one when the draw degraded to the fallback), so reuse
      // it. Only a round that replaced without drawing (a shrunken
      // num_samples target) reaches here without one; Create() is
      // deterministic, so building it now yields the identical proposal the
      // draw would have.
      if (!round_is_sampler_.has_value()) {
        sampling::ImportanceSamplerOptions opts = options_.importance;
        opts.base = options_.sampler_base;
        TOPKPKG_ASSIGN_OR_RETURN(
            sampling::ImportanceSampler rebuilt,
            sampling::ImportanceSampler::Create(prior_, &checker, opts));
        round_is_sampler_ = std::move(rebuilt);
      }
      const sampling::ImportanceSampler& reweighter = *round_is_sampler_;
      // Replace() compacts survivors to the front in pool order; fresh
      // draws sit behind them with their draw-time weights already.
      for (std::size_t i = 0; i < delta.surviving_ids.size(); ++i) {
        const double q = reweighter.ImportanceWeight(pool_.sample(i).w);
        pool_.set_weight(i, q);
      }
    }
    // Every maintenance branch above validated or evicted any previously
    // tainted survivor, so only this round's draw can (re-)taint the pool
    // with unvalidated fallback samples.
    fallback_sample_ids_.clear();
    if (used_fallback) {
      fallback_sample_ids_.insert(delta.added_ids.begin(),
                                  delta.added_ids.end());
    }
  }
  for (std::string& key : fresh_keys) {
    seen_constraint_keys_.insert(std::move(key));
  }
  log->samples_reused = delta.surviving_ids.size();
  log->samples_resampled = delta.added_ids.size();

  obs::ScopedSpan rank_span("rank");
  ranking::IncrementalRankStats rstats;
  Result<ranking::RankingResult> ranked =
      ranker_.Rank(pool_, options_.semantics, ropts, &rstats);
  log->rank_seconds = rank_span.Close();
  log->searches_skipped = rstats.searches_skipped;
  log->searches_deduped = rstats.searches_deduped;
  log->searches_unique = rstats.searches_run - rstats.searches_deduped;
  return ranked;
}

Result<RoundLog> PackageRecommender::RunRound(const SimulatedUser& user) {
  obs::ScopedSpan round_span("round");
  RoundLog log;
  // The IS-sampler stash is strictly round-scoped: a new round means a
  // possibly-new constraint set, so last round's proposal must never leak
  // into this round's reweighting.
  round_is_sampler_.reset();

  // 1. Bring the sample pool in line with (prior, feedback) — replace
  // violators only, against the transitively reduced constraint set
  // (Sec. 3.3 pruning) — and rank packages under the configured semantics.
  sampling::ConstraintChecker checker =
      sampling::ConstraintChecker::FromReduced(feedback_);
  ranking::RankingOptions ropts = options_.ranking;
  ropts.k = std::max<std::size_t>(ropts.k, options_.num_recommended);
  TOPKPKG_ASSIGN_OR_RETURN(ranking::RankingResult ranked,
                           RankIncremental(checker, ropts, &log));
  const RecsysMetrics& m = Metrics();
  m.rounds->Increment();
  m.phase_sample->Observe(log.sample_seconds);
  // First rounds have no maintain phase; a zero observation would only skew
  // the distribution's low tail.
  if (log.maintain_seconds > 0.0) {
    m.phase_maintain->Observe(log.maintain_seconds);
  }
  m.phase_rank->Observe(log.rank_seconds);

  // Every ranked package already passed ropts.package_filter inside the
  // searches, under every semantics.
  std::vector<model::Package> top_k;
  for (const auto& rp : ranked.packages) top_k.push_back(rp.package);
  log.top_k_overlap = TopKOverlap(current_top_k_, top_k);
  log.top_k_changed = log.top_k_overlap < 1.0;
  current_top_k_ = top_k;
  log.top_k = std::move(top_k);

  // 2. Present: exploit slots (current best) + explore slots (random).
  for (std::size_t i = 0;
       i < std::min(options_.num_recommended, log.top_k.size()); ++i) {
    log.presented.push_back(log.top_k[i]);
  }
  log.num_recommended = log.presented.size();
  const std::size_t n = evaluator_->table().num_items();
  while (log.presented.size() < log.num_recommended + options_.num_random) {
    model::Package p =
        pref::RandomPackage(n, evaluator_->phi(), rng_);
    if (ropts.package_filter && !ropts.package_filter(p)) continue;
    // Avoid presenting duplicates.
    bool dup = false;
    for (const auto& q : log.presented) {
      if (q == p) {
        dup = true;
        break;
      }
    }
    if (!dup) log.presented.push_back(std::move(p));
  }
  log.presented_vectors.reserve(log.presented.size());
  for (const auto& p : log.presented) {
    log.presented_vectors.push_back(evaluator_->FeatureVector(p));
  }

  // 3. Collect the click and fold it into the preference DAG.
  log.clicked = user.Click(log.presented_vectors, rng_);
  std::vector<std::string> keys;
  keys.reserve(log.presented.size());
  for (const auto& p : log.presented) keys.push_back(p.Key());
  // Cyclic feedback (possible under noise) is skipped — the paper resolves
  // cycles by re-eliciting, which the next round effectively does.
  Status st = feedback_.AddClickFeedback(log.presented_vectors[log.clicked],
                                         keys[log.clicked],
                                         log.presented_vectors, keys);
  if (!st.ok() && st.code() != StatusCode::kFailedPrecondition) return st;

  history_.push_back(log);
  if (history_.size() > kMaxRoundHistory) {
    history_.erase(history_.begin(),
                   history_.end() -
                       static_cast<std::ptrdiff_t>(kMaxRoundHistory));
  }
  return log;
}

namespace {

constexpr std::uint8_t kMetaVersion = 1;

void PutPackageList(ByteWriter& w, const std::vector<model::Package>& list) {
  w.PutU32(static_cast<std::uint32_t>(list.size()));
  for (const model::Package& p : list) storage::PutPackage(w, p);
}

Result<std::vector<model::Package>> GetPackageList(ByteReader& r) {
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t count, r.GetU32());
  std::vector<model::Package> list;
  list.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(model::Package p, storage::GetPackage(r));
    list.push_back(std::move(p));
  }
  return list;
}

}  // namespace

std::string PackageRecommender::ConfigFingerprint() const {
  // Everything the checkpointed state's *meaning* depends on. Restoring
  // into a recommender whose configuration disagrees would silently change
  // the session's semantics, so Restore refuses on mismatch.
  std::string f;
  f += "m=" + std::to_string(prior_->dim());
  f += ";items=" + std::to_string(evaluator_->table().num_items());
  f += ";phi=" + std::to_string(evaluator_->phi());
  f += ";profile=" + evaluator_->profile().ToString();
  f += ";sampler=" + std::string(SamplerKindName(options_.sampler));
  f += ";semantics=" +
       std::string(ranking::SemanticsName(options_.semantics));
  f += ";num_samples=" + std::to_string(options_.num_samples);
  f += ";num_recommended=" + std::to_string(options_.num_recommended);
  f += ";num_random=" + std::to_string(options_.num_random);
  f += ";k=" + std::to_string(options_.ranking.k);
  f += ";sigma=" + std::to_string(options_.ranking.sigma);
  f += ";psi=" + std::to_string(options_.sampler_base.noise.psi);
  // Constraint pruning, the incremental engine and sharded (per-chunk RNG
  // stream) draws were once options; the first two are always on and draws
  // always take the serial stream now. They stay in the fingerprint so
  // checkpoints written while they were configurable still restore.
  f += ";prune=1;incremental=1;sharded_draw=0";
  return f;
}

Status PackageRecommender::Checkpoint(storage::SessionStore& store,
                                      std::uint64_t session_id) const {
  const std::uint64_t seq = ++checkpoint_seq_;
  // Crash-atomicity: the state records alternate between two kind slots by
  // sequence parity (storage::GenSlotKind) and carry the sequence as a
  // payload prefix; the meta record — one atomic append, written last —
  // commits the sequence and thereby selects the slot. A crash anywhere
  // mid-checkpoint only ever dirties the slot the *next* generation owns,
  // so Restore always finds the last committed generation intact.
  auto wrap = [seq](std::string payload) {
    ByteWriter w;
    w.PutU64(seq);
    std::string out = std::move(w).Take();
    out += payload;
    return out;
  };
  TOPKPKG_RETURN_IF_ERROR(
      store.Put(session_id,
                storage::GenSlotKind(storage::kKindPreferenceSet, seq),
                wrap(storage::EncodePreferenceSet(feedback_))));
  TOPKPKG_RETURN_IF_ERROR(
      store.Put(session_id,
                storage::GenSlotKind(storage::kKindSamplePool, seq),
                wrap(storage::EncodeSamplePool(pool_))));
  TOPKPKG_RETURN_IF_ERROR(
      store.Put(session_id,
                storage::GenSlotKind(storage::kKindTopListCache, seq),
                wrap(storage::EncodeTopListCache(ranker_))));
  TOPKPKG_RETURN_IF_ERROR(
      store.Put(session_id,
                storage::GenSlotKind(storage::kKindRoundHistory, seq),
                wrap(storage::EncodeRoundHistory(history_))));
  ByteWriter meta;
  meta.PutU8(kMetaVersion);
  meta.PutU64(seq);
  meta.PutString(ConfigFingerprint());
  meta.PutString(rng_.SaveState());
  PutPackageList(meta, current_top_k_);
  // Sets serialize sorted so equal states checkpoint to equal bytes.
  std::vector<std::string> seen(seen_constraint_keys_.begin(),
                                seen_constraint_keys_.end());
  std::sort(seen.begin(), seen.end());
  meta.PutU32(static_cast<std::uint32_t>(seen.size()));
  for (const std::string& key : seen) meta.PutString(key);
  std::vector<sampling::SampleId> fallback(fallback_sample_ids_.begin(),
                                           fallback_sample_ids_.end());
  std::sort(fallback.begin(), fallback.end());
  meta.PutU32(static_cast<std::uint32_t>(fallback.size()));
  for (sampling::SampleId id : fallback) meta.PutU64(id);
  TOPKPKG_RETURN_IF_ERROR(store.Put(session_id, storage::kKindRecommenderMeta,
                                    std::move(meta).Take()));
  return store.Flush();
}

Status PackageRecommender::Restore(const storage::SessionStore& store,
                                   std::uint64_t session_id) {
  TOPKPKG_ASSIGN_OR_RETURN(
      std::string meta_bytes,
      store.Get(session_id, storage::kKindRecommenderMeta));
  ByteReader meta(meta_bytes);
  TOPKPKG_ASSIGN_OR_RETURN(std::uint8_t version, meta.GetU8());
  if (version != kMetaVersion) {
    return Status::Unimplemented(
        "PackageRecommender::Restore: meta record version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kMetaVersion));
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t seq, meta.GetU64());
  TOPKPKG_ASSIGN_OR_RETURN(std::string fingerprint, meta.GetString());
  if (fingerprint != ConfigFingerprint()) {
    return Status::InvalidArgument(
        "PackageRecommender::Restore: checkpoint was written by a "
        "differently configured recommender (" +
        fingerprint + " vs " + ConfigFingerprint() + ")");
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::string rng_state, meta.GetString());
  TOPKPKG_ASSIGN_OR_RETURN(std::vector<model::Package> top_k,
                           GetPackageList(meta));
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t num_seen, meta.GetU32());
  std::vector<std::string> seen;
  seen.reserve(std::min<std::size_t>(num_seen, meta.remaining()));
  for (std::uint32_t i = 0; i < num_seen; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(std::string key, meta.GetString());
    seen.push_back(std::move(key));
  }
  TOPKPKG_ASSIGN_OR_RETURN(std::uint32_t num_fallback, meta.GetU32());
  std::vector<sampling::SampleId> fallback;
  fallback.reserve(std::min<std::size_t>(num_fallback, meta.remaining()));
  for (std::uint32_t i = 0; i < num_fallback; ++i) {
    TOPKPKG_ASSIGN_OR_RETURN(sampling::SampleId id, meta.GetU64());
    fallback.push_back(id);
  }

  // The state records live in the kind slot the meta's sequence selects; a
  // torn later checkpoint only dirtied the other slot, so these are the
  // committed generation. A sequence prefix disagreeing with the meta
  // record can therefore only mean an externally damaged store.
  auto unwrap = [&](storage::RecordKind kind,
                    const char* what) -> Result<std::string> {
    TOPKPKG_ASSIGN_OR_RETURN(
        std::string bytes,
        store.Get(session_id, storage::GenSlotKind(kind, seq)));
    ByteReader r(bytes);
    TOPKPKG_ASSIGN_OR_RETURN(std::uint64_t got, r.GetU64());
    if (got != seq) {
      return Status::FailedPrecondition(
          std::string("PackageRecommender::Restore: inconsistent store — ") +
          what + " record is from checkpoint " + std::to_string(got) +
          " but the meta record committed checkpoint " + std::to_string(seq));
    }
    return bytes.substr(sizeof(std::uint64_t));
  };
  TOPKPKG_ASSIGN_OR_RETURN(
      std::string pref_bytes,
      unwrap(storage::kKindPreferenceSet, "preference-set"));
  TOPKPKG_ASSIGN_OR_RETURN(pref::PreferenceSet feedback,
                           storage::DecodePreferenceSet(pref_bytes));
  TOPKPKG_ASSIGN_OR_RETURN(std::string pool_bytes,
                           unwrap(storage::kKindSamplePool, "sample-pool"));
  TOPKPKG_ASSIGN_OR_RETURN(sampling::SamplePool pool,
                           storage::DecodeSamplePool(pool_bytes));
  // The pool and preference-set decoders do not know the prior's
  // dimension, so their vector lengths are checked here: a wrong-length
  // vector would make the next round read past a buffer. The cache record
  // holds no vectors; its lists are aggregated with the pool's.
  auto wrong_dim = [&](const char* what, std::size_t got) {
    return Status::FailedPrecondition(
        std::string("PackageRecommender::Restore: ") + what +
        " record holds a vector of length " + std::to_string(got) +
        " but the prior has dimension " + std::to_string(prior_->dim()));
  };
  for (const Vec& v : feedback.node_vectors()) {
    if (v.size() != prior_->dim()) {
      return wrong_dim("preference-set", v.size());
    }
  }
  for (const sampling::WeightedSample& s : pool.samples()) {
    if (s.w.size() != prior_->dim()) {
      return wrong_dim("sample-pool", s.w.size());
    }
  }
  TOPKPKG_ASSIGN_OR_RETURN(
      std::string cache_bytes,
      unwrap(storage::kKindTopListCache, "top-list-cache"));
  ranking::IncrementalRanker ranker(evaluator_);
  TOPKPKG_RETURN_IF_ERROR(storage::DecodeTopListCacheInto(cache_bytes, ranker));
  // Nor do the package decoders know the catalog: a cached package's items
  // are read row by row when the next round scores it, and the meta
  // record's top-k is served as is, so an item id past the item table is
  // refused here (package items are sorted; the last is the largest).
  const std::size_t num_items = evaluator_->table().num_items();
  auto out_of_catalog = [&](const char* what,
                            const model::Package& p) -> Status {
    if (p.empty() || p.items().back() < num_items) return Status::OK();
    return Status::FailedPrecondition(
        std::string("PackageRecommender::Restore: ") + what +
        " record names item " + std::to_string(p.items().back()) +
        " but the catalog has " + std::to_string(num_items) + " items");
  };
  for (const model::Package& p : top_k) {
    TOPKPKG_RETURN_IF_ERROR(out_of_catalog("meta", p));
  }
  for (const auto& [id, list] : ranker.Snapshot().entries) {
    for (const topk::ScoredPackage& sp : list->packages) {
      TOPKPKG_RETURN_IF_ERROR(out_of_catalog("top-list-cache", sp.package));
    }
  }
  TOPKPKG_ASSIGN_OR_RETURN(
      std::string history_bytes,
      unwrap(storage::kKindRoundHistory, "round-history"));
  TOPKPKG_ASSIGN_OR_RETURN(std::vector<RoundLog> history,
                           storage::DecodeRoundHistory(history_bytes));

  // Everything parsed and checked; commit. The rng state is validated into
  // a local first and the cache was decoded into a local ranker, so a
  // failed Restore leaves the recommender exactly as it was — never a mix
  // of two sessions.
  Rng restored_rng(0);
  TOPKPKG_RETURN_IF_ERROR(restored_rng.LoadState(rng_state));
  ranker_ = std::move(ranker);
  rng_ = restored_rng;
  feedback_ = std::move(feedback);
  pool_ = std::move(pool);
  current_top_k_ = std::move(top_k);
  history_ = std::move(history);
  seen_constraint_keys_.clear();
  seen_constraint_keys_.insert(seen.begin(), seen.end());
  fallback_sample_ids_.clear();
  fallback_sample_ids_.insert(fallback.begin(), fallback.end());
  checkpoint_seq_ = seq;
  return Status::OK();
}

Result<std::size_t> PackageRecommender::RunUntilConverged(
    const SimulatedUser& user, std::size_t stable_rounds,
    std::size_t max_rounds, double min_overlap) {
  std::size_t clicks = 0;
  std::size_t stable = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    TOPKPKG_ASSIGN_OR_RETURN(RoundLog log, RunRound(user));
    ++clicks;
    bool is_stable = round > 0 && log.top_k_overlap >= min_overlap;
    stable = is_stable ? stable + 1 : 0;
    if (stable >= stable_rounds) break;
  }
  return clicks;
}

}  // namespace topkpkg::recsys
