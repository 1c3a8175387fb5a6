#ifndef TOPKPKG_MODEL_AGGREGATE_KERNEL_H_
#define TOPKPKG_MODEL_AGGREGATE_KERNEL_H_

// The single implementation of the per-op aggregate arithmetic (Definition 1
// + the Algorithm 3 `upper-exp` bound). Every layer that folds item values
// into package aggregates, normalizes them, or upper-bounds a package's
// utility delegates here:
//
//   model    — AggregateState (Add / NormalizedFeature / Utility)
//   topk     — the reference UpperExp and the Top-k-Pkg walk's one-lane
//              policy (AggUtility / AggTauPaddedBound / AggEmptyTauBound
//              over its scratch-resident slab), plus the
//              NaivePackageEnumerator oracle via AggregateState
//   sampling — PackageConstraintChecker's aggregate-threshold checks
//   baseline — SolveHardConstraint*'s budget checks
//
// There are deliberately no other copies: the per-op rules (null skipping,
// avg dividing by the *package* size including null rows, count-0 min/max
// evaluating to 0, τ padding, the Lemma 3 greedy stop) are edge-case-heavy
// enough that bit-synchronized twins kept drifting — see
// search_kernel_property_test, which sweeps this arithmetic against the
// exhaustive oracle.
//
// Aggregates are stored as flat stripes: per feature one packed
// [count, sum, min, max] block of kAggStripeWidth doubles. The functions are
// header-inlined because they sit in the branch-and-bound search's innermost
// loop (~2 bound evaluations per expansion).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "topkpkg/model/item_table.h"
#include "topkpkg/model/profile.h"

namespace topkpkg::model {

inline constexpr std::size_t kAggStripeWidth = 4;  // [count, sum, min, max]

// Resets `nf` stripes to the empty-package state.
inline void AggInitStripes(double* blk, std::size_t nf) {
  for (std::size_t f = 0; f < nf; ++f) {
    double* cell = blk + kAggStripeWidth * f;
    cell[0] = 0.0;
    cell[1] = 0.0;
    cell[2] = std::numeric_limits<double>::infinity();
    cell[3] = -std::numeric_limits<double>::infinity();
  }
}

// Folds one non-null value into a stripe.
inline void AggFoldValue(double* cell, double v) {
  cell[0] += 1.0;
  cell[1] += v;
  cell[2] = std::min(cell[2], v);
  cell[3] = std::max(cell[3], v);
}

// Folds an m-wide item row (NaN entries are nulls and are skipped; the
// package size, which `avg` divides by, is tracked by the caller).
inline void AggFoldRow(double* blk, const double* row, std::size_t m) {
  for (std::size_t f = 0; f < m; ++f) {
    const double v = row[f];
    if (IsNull(v)) continue;
    AggFoldValue(blk + kAggStripeWidth * f, v);
  }
}

// Same fold restricted to `nf` selected columns of the row (the search
// kernel's active-feature plan): stripe a holds columns[a]'s aggregates.
inline void AggFoldRowActive(double* blk, const double* row,
                             const std::size_t* columns, std::size_t nf) {
  for (std::size_t a = 0; a < nf; ++a) {
    const double v = row[columns[a]];
    if (IsNull(v)) continue;
    AggFoldValue(blk + kAggStripeWidth * a, v);
  }
}

// Folds the boundary item τ (one effective value per stripe, already mapped
// from the per-feature sorted-list frontier; a null entry folds nothing but
// still occupies a package slot, which the caller's size accounting covers).
inline void AggFoldTau(double* blk, const double* tau, std::size_t nf) {
  for (std::size_t a = 0; a < nf; ++a) {
    const double v = tau[a];
    if (IsNull(v)) continue;
    AggFoldValue(blk + kAggStripeWidth * a, v);
  }
}

// The per-op raw aggregate value of one stripe (Definition 1): `avg` divides
// the non-null sum by the package size (null rows included), a min/max with
// no non-null contribution — and a `null`-profiled feature — evaluate to 0.
inline double AggRaw(const double* cell, AggregateOp op, std::size_t size) {
  switch (op) {
    case AggregateOp::kNull:
      return 0.0;
    case AggregateOp::kSum:
      return cell[1];
    case AggregateOp::kAvg:
      return size > 0 ? cell[1] / static_cast<double>(size) : 0.0;
    case AggregateOp::kMin:
      return cell[0] > 0 ? cell[2] : 0.0;
    case AggregateOp::kMax:
      return cell[0] > 0 ? cell[3] : 0.0;
  }
  return 0.0;
}

// Raw aggregate after one more τ fold, without committing it — the peek the
// empty-package bound's greedy stop uses. `padded_size` is the package size
// before the peeked fold.
inline double AggPeekTauRaw(const double* cell, AggregateOp op, double tau,
                            std::size_t padded_size) {
  if (IsNull(tau)) return AggRaw(cell, op, padded_size + 1);
  switch (op) {
    case AggregateOp::kNull:
      return 0.0;
    case AggregateOp::kSum:
      return cell[1] + tau;
    case AggregateOp::kAvg:
      return (cell[1] + tau) / static_cast<double>(padded_size + 1);
    case AggregateOp::kMin:
      return std::min(cell[2], tau);
    case AggregateOp::kMax:
      return std::max(cell[3], tau);
  }
  return 0.0;
}

// The evaluation plan a stripe block is scored under: parallel per-stripe
// ops / weights / normalization scales. Stripe a of a block corresponds to
// entry a of each array (the caller fixes which table column that is).
struct AggregatePlan {
  const AggregateOp* ops = nullptr;
  const double* weights = nullptr;
  const double* scales = nullptr;
  std::size_t num_features = 0;
};

// U = Σ_a w_a · (raw_a / scale_a), ascending stripe order, zero-weight
// stripes skipped — the one utility evaluation every layer shares.
inline double AggUtility(const AggregatePlan& plan, const double* blk,
                         std::size_t size) {
  double u = 0.0;
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    const double w = plan.weights[a];
    if (w == 0.0) continue;
    u += w * (AggRaw(blk + kAggStripeWidth * a, plan.ops[a], size) /
              plan.scales[a]);
  }
  return u;
}

// Utility after one more τ pad, without committing it.
inline double AggPeekTauUtility(const AggregatePlan& plan, const double* blk,
                                const double* tau, std::size_t padded_size) {
  double u = 0.0;
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    const double w = plan.weights[a];
    if (w == 0.0) continue;
    u += w * (AggPeekTauRaw(blk + kAggStripeWidth * a, plan.ops[a], tau[a],
                            padded_size) /
              plan.scales[a]);
  }
  return u;
}

// True iff a feature's upper bounds need the null-aware relaxation below:
// min-aggregated, negative weight, over a column that may hold nulls. The
// one eligibility rule both the search kernel's per-call plan and the
// reference UpperExp derive their relax masks from.
inline bool AggNeedsNullRelaxation(AggregateOp op, double weight,
                                   bool nullable_column) {
  return op == AggregateOp::kMin && weight < 0.0 && nullable_column;
}

// Null-aware bound weights. `relax[a]` marks stripes whose τ padding is NOT
// admissible when the package has no non-null contribution yet: a
// min-aggregated feature with negative weight over a nullable column. There
// a count-0 package contributes exactly 0 (AggRaw's count-0 rule), which
// beats any τ-padded minimum under a negative weight — folding τ anyway is
// what used to let the search prune (and miss) packages of null items. The
// resolve zeroes those stripes' weights for the bound evaluation, carrying
// the count-0 contribution of 0 explicitly; stripes that already hold a
// non-null value (count > 0) keep the exact τ-padded arithmetic, which is
// admissible for them. `blk == nullptr` means the empty package (all counts
// 0). Never apply this to the exact utility of a real package — only to
// upper bounds.
inline void AggResolveBoundWeights(const AggregatePlan& plan,
                                   const double* blk,
                                   const std::uint8_t* relax, double* out) {
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    const bool count0 = blk == nullptr || blk[kAggStripeWidth * a] == 0.0;
    out[a] = (relax[a] != 0 && count0) ? 0.0 : plan.weights[a];
  }
}

// Algorithm 3 (`upper-exp`) over a stripe block: upper-bounds the utility
// achievable by extending the block's package with up to `slots` copies of
// the boundary item τ. For set-monotone U all slots are filled; otherwise
// padding stops at the first non-positive marginal gain (Lemma 3 makes the
// greedy stop correct). sum/avg advance per pad, min/max are constant after
// the first, so the pad accumulators are scalar — `pad` is caller scratch of
// num_features stripes and no aggregate state is ever copied. Callers with
// nullable min/negative-weight features must resolve the plan's weights
// through AggResolveBoundWeights first.
inline double AggTauPaddedBound(const AggregatePlan& plan, const double* blk,
                                std::size_t size, const double* tau,
                                std::size_t slots, bool set_monotone,
                                double* pad) {
  std::memcpy(pad, blk,
              plan.num_features * kAggStripeWidth * sizeof(double));
  double best = AggUtility(plan, pad, size);
  for (std::size_t i = 0; i < slots; ++i) {
    AggFoldTau(pad, tau, plan.num_features);
    const double u = AggUtility(plan, pad, size + i + 1);
    if (!set_monotone && u <= best) return best;  // Lemma 3: greedy stop.
    best = std::max(best, u);
  }
  return best;
}

// The empty-package variant: upper bound for packages made purely of
// not-yet-folded items. At least one τ pad is forced (packages are
// non-empty); the peek-based stop mirrors AggTauPaddedBound's greedy stop.
inline double AggEmptyTauBound(const AggregatePlan& plan, const double* tau,
                               std::size_t phi, bool set_monotone,
                               double* pad) {
  AggInitStripes(pad, plan.num_features);
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < phi; ++i) {
    AggFoldTau(pad, tau, plan.num_features);
    const double u = AggUtility(plan, pad, i + 1);
    best = std::max(best, u);
    if (!set_monotone && i > 0 &&
        AggPeekTauUtility(plan, pad, tau, i + 1) <= u) {
      break;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Batched (multi-lane) evaluation.
//
// The batched search (TopKPkgSearch::SearchBatch) walks one shared frontier
// and scores every node under many weight vectors ("lanes") at once. The
// entry points below keep the per-op arithmetic identical to the scalar
// ones: the raw aggregate of each stripe is normalized once (AggRaw /
// scale — the same division, in the same order), and each lane's utility is
// then the plain dot product of those shared normalized raws with the
// lane's weight column. A lane's value is therefore bit-for-bit what the
// scalar AggUtility / AggTauPaddedBound / AggEmptyTauBound would compute
// under that lane's weights — the property suite enforces this. Loops run
// stripe-outer / lane-inner over column-major weights, so the inner loop is
// a contiguous multiply-add stream the compiler can auto-vectorize.
// ---------------------------------------------------------------------------

// The batched evaluation plan: per-stripe ops / normalization scales shared
// by every lane, plus the column-major lane weights.
struct AggBatchPlan {
  const AggregateOp* ops = nullptr;
  const double* scales = nullptr;
  // wcol[a * lanes + j] = lane j's weight on stripe a. Entries are the exact
  // per-lane weights (never resolved); bound evaluations express the
  // null-aware relaxation through a shared `skip` set instead, which is
  // lane-uniform within an access-signature group (relax eligibility depends
  // only on op, weight sign and column nullability — all group constants).
  const double* wcol = nullptr;
  std::size_t num_features = 0;
  std::size_t lanes = 0;
};

// raw_norm[a] = AggRaw(stripe a) / scale[a] — the shared, lane-independent
// half of every batched utility.
inline void AggRawNormalized(const AggBatchPlan& plan, const double* blk,
                             std::size_t size, double* raw_norm) {
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    raw_norm[a] =
        AggRaw(blk + kAggStripeWidth * a, plan.ops[a], size) / plan.scales[a];
  }
}

// Same, but peeking one more τ fold per stripe without committing it (the
// batched twin of AggPeekTauRaw for the empty-package bound's greedy stop).
inline void AggPeekTauRawNormalized(const AggBatchPlan& plan,
                                    const double* pad, const double* tau,
                                    std::size_t padded_size,
                                    double* peek_norm) {
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    peek_norm[a] = AggPeekTauRaw(pad + kAggStripeWidth * a, plan.ops[a],
                                 tau[a], padded_size) /
                   plan.scales[a];
  }
}

// u[j] = Σ_a wcol[a][j] · raw_norm[a], ascending stripe order — the batched
// twin of AggUtility's accumulation. `skip`, when non-null, marks stripes
// whose contribution is dropped for every lane; active stripes never carry
// weight 0, so the only skipped stripes are the ones a bound resolved to 0
// (AggResolveBoundWeights' relax-and-count-0 rule), matching the scalar
// w == 0.0 skip exactly.
inline void AggDotBatch(const AggBatchPlan& plan, const double* raw_norm,
                        const std::uint8_t* skip, double* u) {
  const std::size_t lanes = plan.lanes;
  for (std::size_t j = 0; j < lanes; ++j) u[j] = 0.0;
  for (std::size_t a = 0; a < plan.num_features; ++a) {
    if (skip != nullptr && skip[a] != 0) continue;
    const double r = raw_norm[a];
    const double* w = plan.wcol + a * lanes;
    for (std::size_t j = 0; j < lanes; ++j) u[j] += w[j] * r;
  }
}

// Gather twin of AggDotBatch for sparse lane sets: computes u[lidx[t]] for
// the `nl` lane indices in `lidx` only, leaving every other u entry
// untouched (stale). Same ascending-stripe accumulation order per lane, so
// each computed lane is bit-identical to the full-width dot. A shared B&B
// walk's per-node lane masks thin out as lanes prune and retire — on sparse
// nodes this makes dot work scale with the live-lane count instead of the
// batch width.
inline void AggDotBatchGather(const AggBatchPlan& plan, const double* raw_norm,
                              const std::uint8_t* skip,
                              const std::uint32_t* lidx, std::size_t nl,
                              double* u) {
  // Lane-outer with a register accumulator: one strided wcol read per
  // (lane, stripe) — the wcol matrix is small enough to sit in L1 — and a
  // single store per lane. Stripe order stays ascending, so the summation
  // order (and thus the value) matches the full-width dot exactly.
  const std::size_t lanes = plan.lanes;
  const std::size_t nf = plan.num_features;
  for (std::size_t t = 0; t < nl; ++t) {
    const std::uint32_t j = lidx[t];
    double acc = 0.0;
    for (std::size_t a = 0; a < nf; ++a) {
      if (skip != nullptr && skip[a] != 0) continue;
      acc += plan.wcol[a * lanes + j] * raw_norm[a];
    }
    u[j] = acc;
  }
}

// AggTauPaddedBound for every lane at once. The τ folds are lane-shared (τ
// is a property of the walk, not of the lane); only the dot products and the
// Lemma 3 greedy stop are per-lane: `stopped[j]` freezes lane j's bound the
// moment its marginal gain goes non-positive, after which the shared folds
// keep running for the lanes that still gain — extra shared arithmetic that
// never changes a frozen bound. With set-monotone utilities no lane stops,
// exactly like the scalar kernel. `pad` is num_features stripes of caller
// scratch; `raw_norm`, `u`, `stopped`, `bound` are num_features / lanes /
// lanes / lanes wide.
//
// `u0`, when non-null, seeds the pre-pad bound (the i = 0 state) instead of
// the kernel normalizing and dotting `blk` itself. The pre-pad bound is the
// block's plain per-lane utility — it does not depend on τ — so a caller
// that has already evaluated the block's utilities under the SAME plan and
// no skip set (the batched search caches them per node) passes them here
// and saves one normalization (num_features divisions) plus one full dot
// per call. Only valid when `skip` is null: a skip set changes the pre-pad
// dot. Values are bit-identical either way.
inline void AggTauPaddedBoundBatch(const AggBatchPlan& plan, const double* blk,
                                   std::size_t size, const double* tau,
                                   std::size_t slots, bool set_monotone,
                                   const std::uint8_t* skip, const double* u0,
                                   double* pad, double* raw_norm, double* u,
                                   std::uint8_t* stopped, double* bound) {
  const std::size_t lanes = plan.lanes;
  std::memcpy(pad, blk, plan.num_features * kAggStripeWidth * sizeof(double));
  if (u0 != nullptr) {
    std::memcpy(bound, u0, lanes * sizeof(double));
  } else {
    AggRawNormalized(plan, pad, size, raw_norm);
    AggDotBatch(plan, raw_norm, skip, bound);
  }
  for (std::size_t j = 0; j < lanes; ++j) stopped[j] = 0;
  std::size_t padding = lanes;
  for (std::size_t i = 0; i < slots && padding > 0; ++i) {
    AggFoldTau(pad, tau, plan.num_features);
    AggRawNormalized(plan, pad, size + i + 1, raw_norm);
    AggDotBatch(plan, raw_norm, skip, u);
    for (std::size_t j = 0; j < lanes; ++j) {
      if (stopped[j] != 0) continue;
      if (!set_monotone && u[j] <= bound[j]) {  // Lemma 3: greedy stop.
        stopped[j] = 1;
        --padding;
        continue;
      }
      bound[j] = std::max(bound[j], u[j]);
    }
  }
}

// Gather twin of AggTauPaddedBoundBatch: evaluates the τ-padded bound for
// the `nl` lane indices in `lidx` only (other bound entries stay stale).
// The shared τ folds run while any listed lane still gains, exactly as the
// full-width kernel runs them while any lane of the batch still gains —
// frozen lanes never update, so each listed lane's bound is bit-identical
// either way. `lidx` is reordered in place: Lemma-3-stopped lanes are
// swapped behind the live prefix so later folds dot only the lanes that
// can still move (a lane's bound is frozen on stop, so excluding it from
// further dots changes nothing it reads). `u0` as in AggTauPaddedBoundBatch
// (per listed lane; requires a null `skip`).
inline void AggTauPaddedBoundBatchGather(
    const AggBatchPlan& plan, const double* blk, std::size_t size,
    const double* tau, std::size_t slots, bool set_monotone,
    const std::uint8_t* skip, const double* u0, std::uint32_t* lidx,
    std::size_t nl, double* pad, double* raw_norm, double* u, double* bound) {
  std::memcpy(pad, blk, plan.num_features * kAggStripeWidth * sizeof(double));
  if (u0 != nullptr) {
    for (std::size_t t = 0; t < nl; ++t) bound[lidx[t]] = u0[lidx[t]];
  } else {
    AggRawNormalized(plan, pad, size, raw_norm);
    AggDotBatchGather(plan, raw_norm, skip, lidx, nl, bound);
  }
  std::size_t active = nl;
  for (std::size_t i = 0; i < slots && active > 0; ++i) {
    AggFoldTau(pad, tau, plan.num_features);
    AggRawNormalized(plan, pad, size + i + 1, raw_norm);
    AggDotBatchGather(plan, raw_norm, skip, lidx, active, u);
    for (std::size_t t = 0; t < active;) {
      const std::uint32_t j = lidx[t];
      if (!set_monotone && u[j] <= bound[j]) {  // Lemma 3: greedy stop.
        std::swap(lidx[t], lidx[--active]);
        continue;
      }
      bound[j] = std::max(bound[j], u[j]);
      ++t;
    }
  }
}

// AggEmptyTauBound for every lane at once: shared pad/peek folds, per-lane
// peek-based stop. `peek_norm` is num_features doubles of caller scratch,
// `peek_u` lanes wide; the rest as in AggTauPaddedBoundBatch.
inline void AggEmptyTauBoundBatch(const AggBatchPlan& plan, const double* tau,
                                  std::size_t phi, bool set_monotone,
                                  const std::uint8_t* skip, double* pad,
                                  double* raw_norm, double* peek_norm,
                                  double* u, double* peek_u,
                                  std::uint8_t* stopped, double* bound) {
  const std::size_t lanes = plan.lanes;
  AggInitStripes(pad, plan.num_features);
  for (std::size_t j = 0; j < lanes; ++j) {
    bound[j] = -std::numeric_limits<double>::infinity();
    stopped[j] = 0;
  }
  std::size_t padding = lanes;
  for (std::size_t i = 0; i < phi && padding > 0; ++i) {
    AggFoldTau(pad, tau, plan.num_features);
    AggRawNormalized(plan, pad, i + 1, raw_norm);
    AggDotBatch(plan, raw_norm, skip, u);
    const bool peek = !set_monotone && i > 0;
    if (peek) {
      AggPeekTauRawNormalized(plan, pad, tau, i + 1, peek_norm);
      AggDotBatch(plan, peek_norm, skip, peek_u);
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      if (stopped[j] != 0) continue;
      bound[j] = std::max(bound[j], u[j]);
      if (peek && peek_u[j] <= u[j]) {
        stopped[j] = 1;
        --padding;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD suites for the batched kernels.
//
// The three lane-loop entry points above are the scalar reference; the
// vectorized rewrites (common/simd.h lanes over the same
// stripe-outer-per-block, ascending-stripe accumulation) live in
// aggregate_kernel_lanes.inc, compiled once with the baseline ISA and — on
// x86-64 with a capable compiler — once more with -mavx2 under a distinct
// namespace. A suite is a table of function pointers with the reference
// signatures; every suite is bit-identical per lane to the reference (the
// search's bit-identity contract with Search() rides on it, and simd_test
// checks every compiled suite against the reference).
// ---------------------------------------------------------------------------

struct AggBatchKernels {
  using DotBatchFn = void (*)(const AggBatchPlan&, const double*,
                              const std::uint8_t*, double*);
  using TauPaddedBoundBatchFn = void (*)(const AggBatchPlan&, const double*,
                                         std::size_t, const double*,
                                         std::size_t, bool,
                                         const std::uint8_t*, const double*,
                                         double*, double*, double*,
                                         std::uint8_t*, double*);
  using EmptyTauBoundBatchFn = void (*)(const AggBatchPlan&, const double*,
                                        std::size_t, bool,
                                        const std::uint8_t*, double*, double*,
                                        double*, double*, double*,
                                        std::uint8_t*, double*);
  using DotBatchGatherFn = void (*)(const AggBatchPlan&, const double*,
                                    const std::uint8_t*, const std::uint32_t*,
                                    std::size_t, double*);
  using TauPaddedBoundBatchGatherFn = void (*)(
      const AggBatchPlan&, const double*, std::size_t, const double*,
      std::size_t, bool, const std::uint8_t*, const double*, std::uint32_t*,
      std::size_t, double*, double*, double*, double*);

  DotBatchFn dot_batch = nullptr;
  TauPaddedBoundBatchFn tau_padded_bound_batch = nullptr;
  EmptyTauBoundBatchFn empty_tau_bound_batch = nullptr;
  DotBatchGatherFn dot_batch_gather = nullptr;
  TauPaddedBoundBatchGatherFn tau_padded_bound_batch_gather = nullptr;
  // "avx2", "sse2" or "scalar" — what the suite's dots run on.
  const char* backend = "";
};

// The widest suite the running CPU supports (cpuid-checked once: AVX2 ≻
// the baseline-ISA vector suite, which is scalar lanes where the target has
// no vector ISA). Thread-safe; the returned reference is to a
// process-lifetime table.
const AggBatchKernels& AggBatchKernelsFor();

// Raw aggregate of one table column over an explicit item set (the
// constraint layers' entry point: aggregate-threshold and budget checks).
// Out-of-line — these callers are not on the search's hot path.
double AggRawOverColumn(const ItemTable& table,
                        const std::vector<ItemId>& items, std::size_t feature,
                        AggregateOp op);

}  // namespace topkpkg::model

#endif  // TOPKPKG_MODEL_AGGREGATE_KERNEL_H_
