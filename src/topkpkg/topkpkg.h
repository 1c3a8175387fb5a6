#ifndef TOPKPKG_TOPKPKG_H_
#define TOPKPKG_TOPKPKG_H_

// The public facade of topkpkg. Applications include this one header and
// program against what it re-exports; everything under src/topkpkg/ that it
// does NOT pull in (storage/codec.h, sampling internals like
// sample_maintenance.h, topk/skyline.h, ranking/incremental_ranker.h, ...) is
// an internal header: its layout and API may change between versions
// without notice, and the examples deliberately compile against this facade
// alone to keep it honest.
//
// The supported surface, top-down:
//
//   serving/  SessionManager — multi-tenant serving: N durable sessions
//             multiplexed over one thread pool and one session store.
//   recsys/   PackageRecommender — a single elicitation session (the
//             paper's interactive loop), plus SimulatedUser click models.
//   storage/  SessionStore — the append-only durable store sessions
//             checkpoint into.
//   topk/     TopKPkgSearch — the Top-k-Pkg search kernel (Sec. 4).
//   ranking/  PackageRanker + RankingOptions — expected-utility ranking
//             over posterior samples (Sec. 3.4).
//   sampling/ RejectionSampler / McmcSampler / ImportanceSampler — posterior
//             sampling under preference constraints (Sec. 3.2).
//   baseline/ HardConstraintBaseline — the hard-constraint strawman the
//             paper compares against.
//   pref/     Preference / PreferenceSet — the elicited constraint DAG
//             (Sec. 3.3).
//   prob/     Gaussian / GaussianMixture priors.
//   model/    ItemTable / Profile / PackageEvaluator / Package.
//   data/     Synthetic dataset generators (UNI/PWR/COR/ANT, NBA-like).
//   obs/      MetricsRegistry (Prometheus-text export) + request tracing.
//   common/   Status / Result<T>, Rng, ThreadPool.

#include "topkpkg/baseline/hard_constraint.h"
#include "topkpkg/common/random.h"
#include "topkpkg/common/status.h"
#include "topkpkg/common/thread_pool.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/data/nba_like.h"
#include "topkpkg/model/package.h"
#include "topkpkg/obs/metrics.h"
#include "topkpkg/obs/trace.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/pref/preference_set.h"
#include "topkpkg/prob/gaussian.h"
#include "topkpkg/prob/gaussian_mixture.h"
#include "topkpkg/ranking/rankers.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/recsys/simulated_user.h"
#include "topkpkg/sampling/importance_sampler.h"
#include "topkpkg/sampling/mcmc_sampler.h"
#include "topkpkg/sampling/rejection_sampler.h"
#include "topkpkg/serving/session_manager.h"
#include "topkpkg/storage/session_store.h"
#include "topkpkg/topk/topk_pkg.h"

#endif  // TOPKPKG_TOPKPKG_H_
