#include "topkpkg/topk/topk_pkg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topkpkg/model/aggregate_kernel.h"
#include "topkpkg/obs/metrics.h"
#include "topkpkg/obs/trace.h"

namespace topkpkg::topk {

namespace {

constexpr double kEps = 1e-12;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Search-kernel metrics, flushed once per Search() call / per SearchBatch
// group walk from per-walk tallies — the B&B inner loops never touch
// an atomic, so the guarded benches stay within their regression budget
// with instrumentation enabled.
struct SearchMetricsT {
  obs::Counter* searches;
  obs::Counter* expansions;
  obs::Counter* pruned;
  obs::Counter* packages;
  obs::Counter* truncations;
  obs::Counter* batch_walks;
  obs::Counter* batch_lanes;
  obs::Histogram* lane_occupancy;
};

SearchMetricsT& SearchMetrics() {
  static SearchMetricsT* const m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* out = new SearchMetricsT();
    out->searches = reg.GetCounter("topkpkg_search_searches_total",
                                   "Scalar Search() calls");
    out->expansions =
        reg.GetCounter("topkpkg_search_expansions_total",
                       "Branch-and-bound node expansions (all lanes)");
    out->pruned = reg.GetCounter(
        "topkpkg_search_pruned_total",
        "Nodes (or batch lane-slots) cut by the Lemma-3 bound test");
    out->packages = reg.GetCounter("topkpkg_search_packages_generated_total",
                                   "Candidate packages generated");
    out->truncations = reg.GetCounter(
        "topkpkg_search_truncated_total",
        "Searches or batch lanes that hit an expansion/queue/item limit");
    out->batch_walks = reg.GetCounter("topkpkg_search_batch_walks_total",
                                      "Shared batched frontier walks");
    out->batch_lanes = reg.GetCounter("topkpkg_search_batch_lanes_total",
                                      "Weight-vector lanes served batched");
    out->lane_occupancy = reg.GetHistogram(
        "topkpkg_search_batch_lane_occupancy",
        "Lanes sharing one batched walk (max 64)");
    return out;
  }();
  return *m;
}

using model::AggregateOp;
using model::AggregatePlan;
using model::AggregateState;
using model::ItemId;
using model::Package;
using model::PackageEvaluator;

// Keeps the k best ScoredPackages seen so far as a bounded max-heap whose
// root is the current k-th best (the next element to be displaced), so Add
// is O(log k) and the large-k "serve whole result pages" regime doesn't pay
// the O(k) insertion-sorted-vector memmove per candidate. Ordering is
// extracted once at Take(). CanEnter / KthUtility / the surviving set are
// identical to the old sorted-vector collector — both derive from the same
// strict BetterThan order — so search results, tie-breaks and truncation
// points are unchanged.
class TopKCollector {
 public:
  explicit TopKCollector(std::size_t k) : k_(k) {}

  // False when a candidate with this utility cannot possibly enter the
  // current top-k, so callers can skip materializing (and filtering) it
  // entirely. Equal-to-k-th utilities must still be tried: the ascending
  // item-id tie-break may place them above the current k-th.
  bool CanEnter(double utility) const {
    return best_.size() < k_ || utility >= best_.front().utility;
  }

  void Add(ScoredPackage sp) {
    // Heap comparator: BetterThan is a strict "less" whose maximum — the
    // heap root — is therefore the *worst* retained package.
    if (best_.size() < k_) {
      best_.push_back(std::move(sp));
      std::push_heap(best_.begin(), best_.end(), BetterThan);
      return;
    }
    if (!BetterThan(sp, best_.front())) return;
    std::pop_heap(best_.begin(), best_.end(), BetterThan);
    best_.back() = std::move(sp);
    std::push_heap(best_.begin(), best_.end(), BetterThan);
  }

  // η_lo: utility of the current k-th best (−∞ while fewer than k known).
  double KthUtility() const {
    return best_.size() < k_ ? kNegInf : best_.front().utility;
  }

  // True once k packages are held; CanEnter is unconditionally true before.
  bool Saturated() const { return best_.size() >= k_; }

  // Ordered extraction, best first.
  std::vector<ScoredPackage> Take() && {
    std::sort_heap(best_.begin(), best_.end(), BetterThan);
    return std::move(best_);
  }

 private:
  std::size_t k_;
  std::vector<ScoredPackage> best_;
};

}  // namespace

// The per-call arena of one walk over a SearchScratch, shared by both lane
// policies. Aggregate states are packed [count,sum,min,max] blocks over the
// active features only, stored in the scratch's flat slab; folds delegate to
// model/aggregate_kernel.h — the same implementation behind AggregateState
// and the reference UpperExp — so the walk's comparisons, tie-breaks and
// truncation points cannot drift from the model layer's.
class SearchKernel {
 public:
  explicit SearchKernel(SearchScratch& s)
      : s_(s),
        na_(s.active_.size()),
        stride_(model::kAggStripeWidth * s.active_.size()) {}

  double* Block(std::int32_t idx) { return s_.agg_.data() + idx * stride_; }

  // Acquires an arena slot (recycled or new). May grow the slab, so callers
  // must (re)fetch Block() pointers after acquiring.
  std::int32_t Acquire() {
    if (!s_.free_.empty()) {
      std::int32_t idx = s_.free_.back();
      s_.free_.pop_back();
      return idx;
    }
    std::int32_t idx = static_cast<std::int32_t>(s_.meta_.size());
    s_.meta_.emplace_back();
    s_.agg_.resize(s_.agg_.size() + stride_);
    return idx;
  }

  // Returns a slot that was acquired but never linked into the tree.
  void DiscardUnlinked(std::int32_t idx) { s_.free_.push_back(idx); }

  // Drops a node from Q+. Slots are recycled up the parent chain as long as
  // no live child (and no queue membership) still references them.
  void ReleaseFromQueue(std::int32_t idx) {
    while (idx >= 0) {
      SearchScratch::NodeMeta& nm = s_.meta_[idx];
      if (--nm.refs > 0) break;
      s_.free_.push_back(idx);
      idx = nm.parent;
    }
  }

  void InitBlock(double* blk) const { model::AggInitStripes(blk, na_); }

  // AggregateState::Add over the active columns of a raw item row.
  void FoldRow(double* blk, const double* row) const {
    model::AggFoldRowActive(blk, row, s_.active_.data(), na_);
  }

  // Null-aware bound re-tightening, called when the newly accessed item `t`
  // first enters the seen set. Every item still unseen then sits after the
  // cursor on every list, so once a relaxed feature's last null item has
  // been seen, any extension of any open package folds a real (non-null)
  // value there — the count-0 case the relaxation guards against can no
  // longer arise from unseen items, and the plain τ-padded arithmetic is
  // admissible again. Clearing the bit tightens every later bound; on
  // null-heavy min/negative workloads this is what stops the walk from
  // paying relaxed (loose) bounds long after the nulls are all behind it.
  void RetightenNulls(const model::ItemTable& table, ItemId t) {
    for (std::size_t a = 0; a < na_; ++a) {
      if (s_.relax_[a] == 0) continue;
      if (!table.is_null(t, s_.active_[a])) continue;
      if (--s_.null_left_[a] == 0) {
        s_.relax_[a] = 0;
        --s_.relaxed_active_;
      }
    }
  }

 private:
  SearchScratch& s_;
  const std::size_t na_;
  const std::size_t stride_;
};

bool BetterThan(const ScoredPackage& a, const ScoredPackage& b) {
  if (a.utility != b.utility) return a.utility > b.utility;
  return a.package.items() < b.package.items();
}

double UpperExp(const AggregateState& state, const Vec& tau_row,
                const Vec& weights, std::size_t slots, bool set_monotone,
                const std::vector<std::uint8_t>* nullable_columns) {
  const model::Profile& profile = state.profile();
  const model::Normalizer& norm = state.normalizer();
  const std::size_t m = profile.num_features();
  // Pad accumulators, [count,sum,min,max] per feature. This reference entry
  // point serves tests and cold callers, so small allocations are fine; the
  // walk runs the same AggTauPaddedBound over its scratch-resident slab with
  // none.
  Vec pad(model::kAggStripeWidth * m);
  AggregatePlan plan{profile.ops().data(), weights.data(), norm.scale.data(),
                     m};
  Vec bound_weights;
  if (nullable_columns != nullptr) {
    std::vector<std::uint8_t> relax(m, 0);
    for (std::size_t f = 0; f < m; ++f) {
      relax[f] = model::AggNeedsNullRelaxation(profile.op(f), weights[f],
                                               (*nullable_columns)[f] != 0)
                     ? 1
                     : 0;
    }
    bound_weights.resize(m);
    model::AggResolveBoundWeights(plan, state.stripes(), relax.data(),
                                  bound_weights.data());
    plan.weights = bound_weights.data();
  }
  return model::AggTauPaddedBound(plan, state.stripes(), state.size(),
                                  tau_row.data(), slots, set_monotone,
                                  pad.data());
}

std::string AccessSignature(const model::Profile& profile, const Vec& w) {
  // NaN weights get their own class: they activate a feature but are
  // neither > 0 nor < 0, so their walk direction matches negative weights
  // while their relax eligibility and monotonicity contribution do not —
  // mixing them with true negatives would break the group invariants.
  std::string sig(profile.num_features(), '0');
  for (std::size_t f = 0; f < sig.size(); ++f) {
    if (profile.op(f) == AggregateOp::kNull || w[f] == 0.0) continue;
    sig[f] = w[f] > 0.0 ? '+' : (w[f] < 0.0 ? '-' : 'n');
  }
  return sig;
}

// The call's scratch: the caller's, else this thread's — one thread_local
// arena reused by every walk this thread runs (pool workers included), for
// all evaluators, dimensions and lane counts, through either entry point. A
// busy scratch means this call is nested inside another walk on the same
// scratch (a filter callback that searches, say); it then falls back to a
// private scratch — results are scratch-independent, only reuse is lost.
class SearchScratch::Lease {
 public:
  explicit Lease(SearchScratch* requested) {
    static thread_local SearchScratch tls_scratch;
    s_ = requested != nullptr ? requested : &tls_scratch;
    if (s_->in_use_) s_ = &private_.emplace();
    s_->in_use_ = true;
  }
  ~Lease() { s_->in_use_ = false; }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  SearchScratch& scratch() const { return *s_; }

 private:
  std::optional<SearchScratch> private_;
  SearchScratch* s_ = nullptr;
};

// ---------------------------------------------------------------------------
// The one Top-k-Pkg walk, instantiated over two lane policies.
//
// Correctness of sharing a walk rests on the access-signature grouping. Per
// feature, a weight falls in one of four classes — inactive (zero weight or
// null-profiled), positive, negative, NaN — and that class alone determines
// everything the walk's *structure* depends on: the active feature set,
// each list's walk direction (and therefore the item access order and the
// boundary vector τ), the relax mask, and set-monotonicity. Lanes sharing a
// signature therefore share one identical walk skeleton (Walk below); only
// utilities, bounds, η_lo and the retain/termination decisions are
// per-lane. The shared Q+ holds the union of the lanes' queues, per-node
// masks record membership, and because nodes are appended in the same order
// a one-lane walk appends them, each lane's masked view of the shared queue
// is exactly its one-lane queue — including after a per-lane max_queue
// overflow, which re-queues survivors in their original relative order.
// Every per-lane value (chain-fold utility, canonical re-fold, τ-padded
// bound, η_up) is computed by the batched aggregate kernels, whose
// arithmetic is operation-for-operation the scalar kernels' — so each
// lane's packages, utilities, tie order, truncation flags and counters are
// bit-identical to the one-lane walk.
//
// Why two policies and not one: a many-lane walk at width 1 measured
// 1.6–2.2× slower than the one-lane walk on every search bench shape —
// per node, from the lane bookkeeping and kernel-call structure, not SIMD
// dispatch — so Search() and single-lane groups take OneLane.
//
// A policy provides, over lane masks (bit j = lane j):
//   Live() / Width()         the walk's starting lanes / lane count;
//   Result(j)                lane j's SearchResult;
//   BeginItem()              seed every lane's η_up from the empty package;
//   Acquire()                an arena slot plus any per-node lane storage;
//   Score(c, size, m)        chain-fold utilities of node c's block;
//   Admit(gen)               count generated candidates, return the lanes
//                            whose top-k the last scored one may enter;
//   Add(pkg, blk, m)         rank the canonical re-fold `blk` of `pkg`;
//   Retain(node, size, m)    bound node for m, return the lanes keeping it
//                            in Q+ (folding η_up and the prune tally);
//   Held(node) / Hold(node, m)   a queued node's lane membership;
//   Charge(m)                count one expansion for m, return the lanes
//                            whose max_expansions budget it exceeds;
//   OverQueue(live)          the lanes whose |Q+| exceeds max_queue;
//   Bounds(node, m)          node's τ-padded bounds for m, indexed by lane;
//   Kth(j) / Eta(j)          lane j's η_lo and η_up;
//   Finish()                 fill every lane's packages and counters,
//                            return the Lemma-3 prune tally.
// ---------------------------------------------------------------------------

namespace {

using LaneMask = std::uint64_t;

inline int LowestLane(LaneMask mask) {
  return __builtin_ctzll(mask);  // Callers guarantee mask != 0.
}

// The Q+ retention rule: a package stays expandable only while its
// upper-exp bound can still beat the lane's current k-th best η_lo (or tie
// it, in expand_on_ties mode, so boundary ties are surfaced too).
inline bool Retains(const SearchLimits& limits, double bound, double lo) {
  return limits.expand_on_ties ? bound >= lo - kEps : bound > lo + kEps;
}

// Termination test (Algorithm 2 line 8): no package that still involves an
// unseen item can beat the lane's k-th best. In expand_on_ties mode
// equal-bound packages must still be surfaced, so the test is strict
// (exhaustion of the lists bounds the search).
inline bool Terminates(const SearchLimits& limits, double eta, double lo) {
  return limits.expand_on_ties ? eta < lo - kEps : eta <= lo + kEps;
}

// The candidate admission pre-check compares this probe, not `u`, against
// the k-th utility: the chain fold and the canonical re-fold can differ in
// the last bits, so it keeps a slack *relative* to the utility magnitude
// (plus kEps absolutely) — an absolute epsilon alone under-admits when
// unnormalized caller weights push utilities far above O(1).
inline double AdmissionProbe(double u) {
  return u + kEps * (1.0 + std::fabs(u));
}

// What a lane policy sees of its walk: built by Walk after the per-call
// plan, so the scratch's plan vectors (active_, op_, scale_, ...) are final.
struct WalkContext {
  SearchScratch& s;
  SearchKernel& kernel;
  const SearchLimits& limits;
  std::size_t phi;
  bool set_monotone;
};

// One walk's totals for the search metrics.
struct WalkTally {
  std::uint64_t expansions = 0;
  std::uint64_t packages = 0;
  std::uint64_t truncated = 0;
  std::uint64_t pruned = 0;

  void Add(const SearchResult& r) {
    expansions += r.expansions;
    packages += r.packages_generated;
    if (r.truncated) ++truncated;
  }
};

// Flushes one walk's tally: `batch_lanes` == 0 marks a Search() call,
// otherwise the width of one SearchBatch group walk.
void RecordWalk(const WalkTally& t, std::size_t batch_lanes) {
  auto& sm = SearchMetrics();
  if (batch_lanes == 0) {
    sm.searches->Increment();
  } else {
    sm.batch_walks->Increment();
    sm.batch_lanes->Increment(batch_lanes);
    sm.lane_occupancy->Observe(static_cast<double>(batch_lanes));
  }
  sm.expansions->Increment(t.expansions);
  sm.packages->Increment(t.packages);
  sm.pruned->Increment(t.pruned);
  sm.truncations->Increment(t.truncated);
}

// Zero active features: utility is identically 0, so the ranking is decided
// purely by the deterministic tie-break — ascending item-id sequence
// (Sec. 2.1). That makes the top-k the first k filter-passing packages of
// size <= φ in the shared lexicographic walk (model/package.h) — by
// construction the exact order the oracle (NaivePackageEnumerator) ranks
// ties in. Exactness under ties is a contract, not a caveat.
SearchResult LexicographicTopK(std::size_t n, std::size_t phi, std::size_t k,
                               const SearchLimits& limits,
                               const TopKPkgSearch::PackageFilter* filter) {
  SearchResult result;
  model::ForEachPackageLexicographic(
      n, phi, [&](const std::vector<ItemId>& current) {
        ++result.expansions;
        if (result.expansions > limits.max_expansions) {
          // A filter that rejects nearly everything can otherwise force a
          // full walk of the exponential package space.
          result.truncated = true;
          return false;
        }
        ++result.packages_generated;
        Package p = Package::Of(current);
        if (filter == nullptr || !*filter || (*filter)(p)) {
          result.packages.push_back(ScoredPackage{std::move(p), 0.0});
        }
        return result.packages.size() < k;
      });
  WalkTally tally;
  tally.Add(result);
  RecordWalk(tally, 0);
  return result;
}

}  // namespace

// The one-lane policy: the scalar aggregate kernels (AggUtility /
// AggTauPaddedBound / AggEmptyTauBound, inline), one collector, plain
// counters. Lane masks are the constant 1 (or 0 once the lane has left), so
// the skeleton's mask arithmetic folds away. The collector is the caller's:
// held by reference, its heap growth never takes this object's address, so
// the hot scalars below can stay in registers.
class OneLane {
 public:
  OneLane(const WalkContext& ctx, TopKCollector* collector, SearchResult* out)
      : ctx_(ctx),
        s_(ctx.s),
        plan_{s_.op_.data(), s_.weight_.data(), s_.scale_.data(),
              s_.active_.size()},
        collector_(*collector),
        out_(out) {}

  LaneMask Live() const { return 1; }
  std::size_t Width() const { return 1; }
  SearchResult& Result(int) { return *out_; }

  // Upper bound for packages made purely of unseen items: pad τ into an
  // empty package, forcing at least one item (packages are non-empty) and
  // taking the best prefix. Marginals are non-increasing (Lemma 3); once a
  // pad stops helping, further pads cannot.
  void BeginItem() {
    eta_ = model::AggEmptyTauBound(BoundPlan(nullptr), s_.tau_.data(),
                                   ctx_.phi, ctx_.set_monotone,
                                   s_.pad_.data());
  }

  std::int32_t Acquire() { return ctx_.kernel.Acquire(); }

  // The exact utility of a real package, never relaxed.
  void Score(std::int32_t c, std::size_t size, LaneMask) {
    u_ = model::AggUtility(plan_, ctx_.kernel.Block(c), size);
  }

  LaneMask Admit(LaneMask) {
    ++out_->packages_generated;
    return collector_.CanEnter(AdmissionProbe(u_)) ? 1 : 0;
  }

  void Add(Package&& pkg, const double* blk, LaneMask) {
    const double canonical = model::AggUtility(plan_, blk, pkg.size());
    collector_.Add(ScoredPackage{std::move(pkg), canonical});
  }

  LaneMask Retain(std::int32_t node, std::size_t size, LaneMask) {
    const double bound = Bound(node, size);
    const double lo = collector_.KthUtility();
    if (Retains(ctx_.limits, bound, lo)) {
      eta_ = std::max(eta_, bound);
      return 1;
    }
    ++pruned_;
    return 0;
  }

  LaneMask Held(std::int32_t) const { return 1; }
  void Hold(std::int32_t, LaneMask) {}

  LaneMask Charge(LaneMask lanes) {
    return ++out_->expansions > ctx_.limits.max_expansions ? lanes : 0;
  }

  LaneMask OverQueue(LaneMask live) const {
    return s_.q_.size() > ctx_.limits.max_queue ? live : 0;
  }

  const double* Bounds(std::int32_t node, LaneMask) {
    bound_ = Bound(node, s_.meta_[node].depth);
    return &bound_;
  }

  double Kth(int) const { return collector_.KthUtility(); }
  double Eta(int) const { return eta_; }

  std::uint64_t Finish() {
    out_->packages = std::move(collector_).Take();
    return pruned_;
  }

 private:
  // The plan a bound over `blk` must be evaluated under: exact weights when
  // no feature currently needs the null relaxation, otherwise the resolved
  // copy with count-0 relaxed features zeroed (their bound contribution is
  // the count-0 value, exactly 0). `blk == nullptr` = the empty package.
  // Reads the scratch's live relax state, which RetightenNulls() shrinks as
  // the walk exhausts each relaxed feature's null items.
  AggregatePlan BoundPlan(const double* blk) const {
    AggregatePlan plan = plan_;
    if (s_.relaxed_active_ > 0) {
      model::AggResolveBoundWeights(plan, blk, s_.relax_.data(),
                                    s_.bound_weight_.data());
      plan.weights = s_.bound_weight_.data();
    }
    return plan;
  }

  // Algorithm 3 over an arena block: pads phi - size copies of τ into the
  // scratch pad accumulators and never touches an AggregateState.
  // Value-identical to UpperExp() over the equivalent state.
  double Bound(std::int32_t node, std::size_t size) const {
    const double* blk = ctx_.kernel.Block(node);
    return model::AggTauPaddedBound(BoundPlan(blk), blk, size, s_.tau_.data(),
                                    ctx_.phi - size, ctx_.set_monotone,
                                    s_.pad_.data());
  }

  const WalkContext ctx_;
  SearchScratch& s_;
  const AggregatePlan plan_;  // Exact utilities over the active features.
  TopKCollector& collector_;
  SearchResult* out_;
  double u_ = 0.0;      // Chain-fold utility of the last scored node.
  double eta_ = 0.0;    // η_up of the current item step.
  double bound_ = 0.0;  // Bounds() output.
  std::uint64_t pruned_ = 0;
};

// The many-lane policy: 2 to kMaxBatchLanes lanes of one signature group,
// evaluated through the batched SIMD kernel suite, with uint64_t node lane
// masks, bit-sliced counters and base_u_ bound seeds.
class ManyLanes {
 public:
  ManyLanes(const WalkContext& ctx, std::size_t k,
            const std::vector<const Vec*>& weights, const std::size_t* lane_ids,
            std::size_t lanes, const model::AggBatchKernels& kern,
            std::vector<SearchResult>& results)
      : ctx_(ctx),
        s_(ctx.s),
        L_(lanes),
        na_(ctx.s.active_.size()),
        kern_(kern),
        lane_ids_(lane_ids),
        results_(results),
        full_mask_(lanes >= 64 ? ~LaneMask{0}
                               : ((LaneMask{1} << lanes) - 1)),
        unsat_(full_mask_) {
    s_.mask_.clear();
    s_.wcol_.resize(na_ * L_);
    for (std::size_t a = 0; a < na_; ++a) {
      const std::size_t f = s_.active_[a];
      for (std::size_t j = 0; j < L_; ++j) {
        s_.wcol_[a * L_ + j] = (*weights[lane_ids[j]])[f];
      }
    }
    plan_ = model::AggBatchPlan{s_.op_.data(), s_.scale_.data(),
                                s_.wcol_.data(), na_, L_};
    s_.raw_norm_.resize(na_);
    s_.peek_norm_.resize(na_);
    s_.skip_.resize(na_);
    s_.lane_u_.resize(L_);
    s_.lane_peek_.resize(L_);
    s_.lane_bound_.resize(L_);
    s_.lane_eta_.resize(L_);
    s_.lane_stop_.resize(L_);
    s_.lane_qlen_.resize(L_);
    // lane_kth_[j] mirrors collectors_[j].KthUtility() (refreshed after
    // each Add); `unsat_` has bit j set while collector j holds fewer than
    // k, so CanEnter(x) ≡ unsat-bit | (x >= lane_kth_[j]) exactly, NaNs
    // included.
    s_.lane_kth_.assign(L_, kNegInf);
    s_.lane_exp_.assign(L_, 0);
    s_.lane_gen_.assign(L_, 0);
    s_.lane_idx_.resize(L_);
    s_.lane_idx2_.resize(L_);
    s_.exp_planes_.assign(64, 0);
    s_.qlen_planes_.assign(64, 0);
    collectors_.reserve(L_);
    for (std::size_t j = 0; j < L_; ++j) collectors_.emplace_back(k);
  }

  LaneMask Live() const { return full_mask_; }
  std::size_t Width() const { return L_; }
  SearchResult& Result(int j) { return results_[lane_ids_[j]]; }

  // Empty-package η_up seed for every lane, into lane_eta_. All counts are
  // 0, so the skip set is the relax mask itself.
  void BeginItem() {
    const std::uint8_t* skip =
        s_.relaxed_active_ > 0 ? s_.relax_.data() : nullptr;
    kern_.empty_tau_bound_batch(
        plan_, s_.tau_.data(), ctx_.phi, ctx_.set_monotone, skip,
        s_.pad_.data(), s_.raw_norm_.data(), s_.peek_norm_.data(),
        s_.lane_u_.data(), s_.lane_peek_.data(), s_.lane_stop_.data(),
        s_.lane_eta_.data());
    std::fill_n(s_.qlen_planes_.data(), 64, LaneMask{0});
    qlen_adds_ = 0;
  }

  std::int32_t Acquire() {
    const std::int32_t c = ctx_.kernel.Acquire();
    if (s_.mask_.size() < s_.meta_.size()) s_.mask_.resize(s_.meta_.size(), 0);
    if (s_.base_u_.size() < s_.meta_.size() * L_) {
      s_.base_u_.resize(s_.meta_.size() * L_, 0.0);
    }
    return c;
  }

  // Chain-fold utilities of node c for `lanes`, into lane_u_, and the
  // node's bound seed: its lanes' creation utilities (see
  // SearchScratch::base_u_). A full-L copy — dead lanes' stale values are
  // never read.
  void Score(std::int32_t c, std::size_t size, LaneMask lanes) {
    Utilities(ctx_.kernel.Block(c), size, lanes, s_.lane_u_.data());
    std::memcpy(s_.base_u_.data() + static_cast<std::size_t>(c) * L_,
                s_.lane_u_.data(), L_ * sizeof(double));
  }

  LaneMask Admit(LaneMask gen) {
    LaneMask enter = 0;
    for (LaneMask mm = gen; mm != 0; mm &= mm - 1) {
      const int j = LowestLane(mm);
      ++s_.lane_gen_[j];
      // CanEnter, from the cached state: unconditionally true while the
      // lane's collector is unsaturated, else probe >= its k-th utility.
      if (((unsat_ >> j) & 1u) != 0 ||
          AdmissionProbe(s_.lane_u_[j]) >= s_.lane_kth_[j]) {
        enter |= LaneMask{1} << j;
      }
    }
    return enter;
  }

  // Canonical ascending-item-id re-fold, normalized once and dotted for the
  // admitted lanes only (lane_peek_ doubles as the canonical-utility
  // buffer here).
  void Add(Package&& pkg, const double* blk, LaneMask enter) {
    Utilities(blk, pkg.size(), enter, s_.lane_peek_.data());
    for (LaneMask mm = enter; mm != 0; mm &= mm - 1) {
      const int j = LowestLane(mm);
      collectors_[j].Add(ScoredPackage{pkg, s_.lane_peek_[j]});
      s_.lane_kth_[j] = collectors_[j].KthUtility();
      if (collectors_[j].Saturated()) unsat_ &= ~(LaneMask{1} << j);
    }
  }

  // Q+ retention for every lane of `mset` in one pass: returns the kept
  // mask and folds the node's bound into η_up and |Q+| for kept lanes.
  // Reads the cached k-th utilities, never the collectors.
  LaneMask Retain(std::int32_t node, std::size_t size, LaneMask mset) {
    EvalBounds(node, size, mset);
    LaneMask kept = 0;
    for (LaneMask mm = mset; mm != 0; mm &= mm - 1) {
      const int j = LowestLane(mm);
      const double bound = s_.lane_bound_[j];
      if (Retains(ctx_.limits, bound, s_.lane_kth_[j])) {
        kept |= LaneMask{1} << j;
        if (bound > s_.lane_eta_[j]) s_.lane_eta_[j] = bound;
      }
    }
    // Each lane bit present in mset but not kept is one Lemma-3 prune.
    pruned_ += static_cast<std::uint64_t>(__builtin_popcountll(mset) -
                                          __builtin_popcountll(kept));
    // |Q+| accounting, bit-sliced: the per-lane counts are only consulted
    // by OverQueue once per item step.
    if (kept != 0) {
      PlaneAdd(s_.qlen_planes_.data(), kept);
      ++qlen_adds_;
    }
    return kept;
  }

  LaneMask Held(std::int32_t node) const { return s_.mask_[node]; }
  void Hold(std::int32_t node, LaneMask lanes) { s_.mask_[node] = lanes; }

  // While exp_hi_ (an upper bound on every lane's expansion count — each
  // node charges a lane at most once) is under the budget, no lane can have
  // crossed it and the accounting is one carry-save plane add; the exact
  // per-lane count takes over permanently from the first node where a lane
  // could cross.
  LaneMask Charge(LaneMask mset) {
    if (!exp_exact_) {
      if (exp_hi_ < ctx_.limits.max_expansions) {
        PlaneAdd(s_.exp_planes_.data(), mset);
        ++exp_hi_;
        return 0;
      }
      PlaneCounts(s_.exp_planes_.data(), s_.lane_exp_.data());
      exp_exact_ = true;
    }
    LaneMask spent = 0;
    for (LaneMask mm = mset; mm != 0; mm &= mm - 1) {
      const int j = LowestLane(mm);
      if (++s_.lane_exp_[j] > ctx_.limits.max_expansions) {
        spent |= LaneMask{1} << j;
      }
    }
    return spent;
  }

  // Only once qlen_adds_ passes the cap can any lane's |Q+| exceed it — then
  // materialize the exact counts from the planes and test per lane.
  LaneMask OverQueue(LaneMask live) {
    if (qlen_adds_ <= ctx_.limits.max_queue) return 0;
    std::fill(s_.lane_qlen_.begin(), s_.lane_qlen_.end(), 0);
    PlaneCounts(s_.qlen_planes_.data(), s_.lane_qlen_.data());
    LaneMask over = 0;
    for (LaneMask mm = live; mm != 0; mm &= mm - 1) {
      const int j = LowestLane(mm);
      if (s_.lane_qlen_[j] > ctx_.limits.max_queue) over |= LaneMask{1} << j;
    }
    return over;
  }

  const double* Bounds(std::int32_t node, LaneMask lanes) {
    EvalBounds(node, s_.meta_[node].depth, lanes);
    return s_.lane_bound_.data();
  }

  double Kth(int j) const { return s_.lane_kth_[j]; }
  double Eta(int j) const { return s_.lane_eta_[j]; }

  std::uint64_t Finish() {
    if (!exp_exact_) PlaneCounts(s_.exp_planes_.data(), s_.lane_exp_.data());
    for (std::size_t j = 0; j < L_; ++j) {
      SearchResult& r = results_[lane_ids_[j]];
      r.expansions = s_.lane_exp_[j];
      r.packages_generated = s_.lane_gen_[j];
      r.packages = std::move(collectors_[j]).Take();
    }
    return pruned_;
  }

 private:
  // Bit-sliced counter accumulation (see SearchScratch): carry-save add of
  // a lane mask into 64 bit planes, amortized O(1) per add, and the exact
  // extraction that folds the planes back into per-lane counts.
  static void PlaneAdd(LaneMask* planes, LaneMask mask) {
    LaneMask carry = mask;
    for (std::size_t p = 0; carry != 0; ++p) {
      const LaneMask t = planes[p];
      planes[p] = t ^ carry;
      carry = t & carry;
    }
  }
  static void PlaneCounts(LaneMask* planes, std::size_t* out) {
    for (std::size_t p = 0; p < 64; ++p) {
      LaneMask bits = planes[p];
      planes[p] = 0;
      while (bits != 0) {
        out[LowestLane(bits)] += std::size_t{1} << p;
        bits &= bits - 1;
      }
    }
  }

  // The lanes of `mask` as an index list in `idx`, returning the count; a
  // full mask returns L_ without building the list (the dense kernels never
  // read it).
  std::size_t LaneList(LaneMask mask, std::uint32_t* idx) const {
    if (mask == full_mask_) return L_;
    std::size_t nl = 0;
    for (LaneMask mm = mask; mm != 0; mm &= mm - 1) {
      idx[nl++] = static_cast<std::uint32_t>(LowestLane(mm));
    }
    return nl;
  }

  // Utilities of block `blk` for the lanes of `mask`, written to out[lane]:
  // the block is normalized once, then dotted per lane — the dense SIMD
  // kernel for the full batch, the strided gather otherwise.
  void Utilities(const double* blk, std::size_t size, LaneMask mask,
                 double* out) {
    model::AggRawNormalized(plan_, blk, size, s_.raw_norm_.data());
    const std::size_t nl = LaneList(mask, s_.lane_idx2_.data());
    if (nl == L_) {
      kern_.dot_batch(plan_, s_.raw_norm_.data(), nullptr, out);
    } else {
      kern_.dot_batch_gather(plan_, s_.raw_norm_.data(), nullptr,
                             s_.lane_idx2_.data(), nl, out);
    }
  }

  // τ-padded bound of arena node `node` for the lanes of `mask`, into
  // lane_bound_ (other entries stay stale — callers only read masked
  // lanes). The skip set (count-0 relaxed stripes) depends only on the
  // shared block, so it is lane-uniform — the one-lane BoundPlan resolve,
  // batched; an all-zero skip set is dropped to null (no stripe skipped
  // either way) so the common case below can seed. With a null skip the
  // bound's pre-pad dot is exactly the node's cached creation utility
  // (base_u_), so the kernels start from the cache instead of
  // re-normalizing and re-dotting the block — the dominant per-call cost on
  // re-evaluations. Sparse masks route through the gather kernel so bound
  // work scales with the node's live-lane count, not the batch width.
  void EvalBounds(std::int32_t node, std::size_t size, LaneMask mask) {
    const double* blk = ctx_.kernel.Block(node);
    const std::size_t slots = ctx_.phi - size;
    const std::uint8_t* skip = nullptr;
    if (s_.relaxed_active_ > 0) {
      bool any = false;
      for (std::size_t a = 0; a < na_; ++a) {
        s_.skip_[a] =
            (s_.relax_[a] != 0 && blk[model::kAggStripeWidth * a] == 0.0) ? 1
                                                                          : 0;
        any = any || s_.skip_[a] != 0;
      }
      if (any) skip = s_.skip_.data();
    }
    const double* u0 =
        skip == nullptr
            ? s_.base_u_.data() + static_cast<std::size_t>(node) * L_
            : nullptr;
    const std::size_t nl = LaneList(mask, s_.lane_idx_.data());
    if (nl == L_) {
      kern_.tau_padded_bound_batch(
          plan_, blk, size, s_.tau_.data(), slots, ctx_.set_monotone, skip,
          u0, s_.pad_.data(), s_.raw_norm_.data(), s_.lane_u_.data(),
          s_.lane_stop_.data(), s_.lane_bound_.data());
    } else {
      kern_.tau_padded_bound_batch_gather(
          plan_, blk, size, s_.tau_.data(), slots, ctx_.set_monotone, skip,
          u0, s_.lane_idx_.data(), nl, s_.pad_.data(), s_.raw_norm_.data(),
          s_.lane_u_.data(), s_.lane_bound_.data());
    }
  }

  const WalkContext ctx_;
  SearchScratch& s_;
  const std::size_t L_;
  const std::size_t na_;
  const model::AggBatchKernels& kern_;
  const std::size_t* lane_ids_;
  std::vector<SearchResult>& results_;
  const LaneMask full_mask_;
  model::AggBatchPlan plan_;
  std::vector<TopKCollector> collectors_;
  LaneMask unsat_;
  std::size_t exp_hi_ = 0;
  bool exp_exact_ = false;
  std::size_t qlen_adds_ = 0;  // Per item step: retains that kept lanes.
  std::uint64_t pruned_ = 0;
};

template <class Lanes, class... LaneArgs>
void TopKPkgSearch::Walk(SearchScratch& s, const Vec& w0,
                         const SearchLimits& limits,
                         const PackageFilter* filter, bool batched,
                         LaneArgs&&... lane_args) const {
  const PackageEvaluator& ev = *evaluator_;
  const model::ItemTable& table = ev.table();
  const model::Profile& profile = ev.profile();
  const std::size_t m = profile.num_features();
  const std::size_t n = table.num_items();
  const std::size_t phi = ev.phi();

  // Per-call plan + arena reset, derived from w0 — interchangeable with any
  // lane of its signature group. clear() keeps every capacity, so the warm
  // steady state allocates nothing.
  s.active_.clear();
  for (std::size_t f = 0; f < m; ++f) {
    if (w0[f] != 0.0 && profile.op(f) != AggregateOp::kNull) {
      s.active_.push_back(f);
    }
  }
  const std::size_t na = s.active_.size();  // Callers guarantee na > 0.
  s.op_.resize(na);
  s.weight_.resize(na);
  s.scale_.resize(na);
  s.tau_.resize(na);
  s.cursor_.assign(na, 0);
  s.relax_.resize(na);
  s.bound_weight_.resize(na);
  s.null_left_.resize(na);
  s.relaxed_active_ = 0;
  for (std::size_t a = 0; a < na; ++a) {
    const std::size_t f = s.active_[a];
    s.op_[a] = profile.op(f);
    s.weight_[a] = w0[f];
    s.scale_[a] = ev.normalizer().scale[f];
    // Null-aware bound relaxation (see model/aggregate_kernel.h): on a
    // nullable min-aggregated column with negative weight, a package with no
    // non-null value contributes exactly 0 — better than any τ-padded
    // minimum — so bounds must carry that count-0 contribution explicitly.
    // Null-free columns keep the tighter plain τ arithmetic bit-for-bit, and
    // a relaxed feature re-tightens mid-walk once its nulls are all seen
    // (SearchKernel::RetightenNulls), seeded from the per-feature null
    // census here.
    s.relax_[a] = model::AggNeedsNullRelaxation(s.op_[a], s.weight_[a],
                                                ev.null_count(f) > 0)
                      ? 1
                      : 0;
    s.null_left_[a] = s.relax_[a] != 0 ? ev.null_count(f) : 0;
    if (s.relax_[a] != 0) ++s.relaxed_active_;
  }
  s.meta_.clear();
  s.agg_.clear();
  s.free_.clear();
  s.q_.clear();
  s.next_q_.clear();
  s.pad_.resize(model::kAggStripeWidth * na);
  s.refold_.resize(model::kAggStripeWidth * na);
  if (s.lane_bounds_.size() < kMaxBatchLanes) {
    s.lane_bounds_.resize(kMaxBatchLanes);
  }
  // Seen set: grow (zeroed) when this table is the largest yet, then clear
  // by generation bump; on counter wraparound re-zero once.
  if (s.seen_.size() < n) {
    s.seen_.assign(n, 0);
    s.generation_ = 0;
  }
  if (++s.generation_ == 0) {
    std::fill(s.seen_.begin(), s.seen_.end(), 0u);
    s.generation_ = 1;
  }

  // Sorted lists L: the evaluator's ascending per-feature orders, walked
  // backwards for positive weights (descending desirability) and forwards
  // for negative ones ("a sorted list can be accessed both forwards and
  // backwards", Sec. 4).
  //
  // Boundary item τ: per active feature the effective value at the list
  // frontier (initialized to the best value, an upper bound on every item).
  s.lists_.resize(na);
  for (std::size_t li = 0; li < na; ++li) {
    const std::size_t f = s.active_[li];
    const bool backward = w0[f] > 0.0;
    SearchScratch::ListView& list = s.lists_[li];
    list.ids = ev.ascending_ids(f).data();
    list.values = ev.ascending_values(f).data();
    list.first = backward ? static_cast<std::ptrdiff_t>(n) - 1 : 0;
    list.step = backward ? -1 : 1;
    s.tau_[li] = list.values[list.first];
  }
  const SearchScratch::ListView* const lists = s.lists_.data();

  const bool set_monotone = model::IsSetMonotone(profile, w0);
  SearchKernel kernel(s);
  Lanes lanes(WalkContext{s, kernel, limits, phi, set_monotone},
              std::forward<LaneArgs>(lane_args)...);
  const std::size_t stride_bytes =
      model::kAggStripeWidth * na * sizeof(double);

  // Offers a generated candidate to the lanes of `gen`: the package
  // p ∪ {t} encoded as `t` on top of the arena chain ending at `parent`
  // (-1 for the singleton {t}), already scored by Lanes::Score. The item-id
  // vector is materialized — and the filter consulted — only when some
  // lane's utility can still enter its current top-k. The utility a
  // candidate is ranked by is re-folded here in ascending item-id order,
  // the oracle's fold order, so exact-real ties round identically in both
  // and the deterministic item-id tie-break agrees with the oracle on any
  // data (decimal inputs included).
  auto collect = [&](std::int32_t parent, ItemId t, LaneMask gen) {
    const LaneMask enter = lanes.Admit(gen);
    if (enter == 0) return;
    s.items_.clear();
    s.items_.push_back(t);
    for (std::int32_t i = parent; i >= 0; i = s.meta_[i].parent) {
      s.items_.push_back(s.meta_[i].item);
    }
    Package pkg = Package::Of(s.items_);  // Of() sorts the chain order.
    if (filter != nullptr && *filter && !(*filter)(pkg)) return;
    double* rb = s.refold_.data();
    kernel.InitBlock(rb);
    for (ItemId id : pkg.items()) kernel.FoldRow(rb, table.RowSpan(id));
    lanes.Add(std::move(pkg), rb, enter);
  };

  LaneMask live = lanes.Live();
  std::size_t items_accessed = 0;
  // Lanes leave the walk: freeze their access counters at the shared count
  // (the streams are identical, so this is what their one-lane walks read).
  auto exit_lanes = [&](LaneMask gone, bool truncated) {
    live &= ~gone;
    for (; gone != 0; gone &= gone - 1) {
      SearchResult& r = lanes.Result(LowestLane(gone));
      r.items_accessed = items_accessed;
      if (truncated) r.truncated = true;
    }
  };
  while (live != 0) {
    for (std::size_t li = 0; li < na && live != 0; ++li) {
      if (s.cursor_[li] >= n) {
        // Every item appears in every list, so one exhausted list means all
        // items were accessed.
        exit_lanes(live, false);
        break;
      }
      if (items_accessed >= limits.max_items_accessed) {
        exit_lanes(live, true);
        break;
      }
      const SearchScratch::ListView& list = lists[li];
      const std::ptrdiff_t at =
          list.first + list.step * static_cast<std::ptrdiff_t>(s.cursor_[li]);
      const ItemId t = list.ids[at];
      s.tau_[li] = list.values[at];
      ++s.cursor_[li];
      ++items_accessed;
      if (s.seen_[t] == s.generation_) continue;
      s.seen_[t] = s.generation_;
      if (s.relaxed_active_ > 0) kernel.RetightenNulls(table, t);

      // --- Algorithm 4: expandPackages(U, Q, t, τ) — with one fix and one
      // strengthening over the paper's pseudo-code:
      //   * every child p ∪ {t} becomes a result candidate, not only
      //     utility-improving ones (with non-monotone aggregates such as avg
      //     a true rank-2+ package can score below its own prefix, so the
      //     strict-improvement filter of Alg. 4 line 3 loses it);
      //   * a package stays in Q+ only while its upper-exp bound can still
      //     beat the current k-th best η_lo. This subsumes the paper's
      //     Q− test (τ-padding no longer improves) and is what keeps Q+
      //     from growing exponentially with the accessed-item count.
      const double* row = table.RowSpan(t);
      lanes.BeginItem();
      s.next_q_.clear();

      // Expansion of the (implicit) empty package: singletons are always
      // generated, since every non-empty package descends from one.
      {
        const std::int32_t c = lanes.Acquire();
        double* cb = kernel.Block(c);
        kernel.InitBlock(cb);
        kernel.FoldRow(cb, row);
        lanes.Score(c, 1, live);
        collect(-1, t, live);
        LaneMask kept = 0;
        if (phi > 1) {
          kept = lanes.Retain(c, 1, live);
          if (kept != 0) {
            s.meta_[c] = SearchScratch::NodeMeta{t, -1, 1, 1};
            lanes.Hold(c, kept);
            s.next_q_.push_back(c);
          }
        }
        if (kept == 0) kernel.DiscardUnlinked(c);
      }

      for (std::size_t qi = 0; qi < s.q_.size(); ++qi) {
        const std::int32_t idx = s.q_[qi];
        LaneMask mset = lanes.Held(idx) & live;
        // A lane over its expansion budget exits mid-sweep without
        // processing this node, exactly where its one-lane walk breaks off.
        const LaneMask spent = lanes.Charge(mset);
        if (spent != 0) {
          exit_lanes(spent, true);
          mset &= ~spent;
        }
        if (mset == 0) {
          kernel.ReleaseFromQueue(idx);
          // Once every lane has left, the unprocessed Q+ nodes are dropped;
          // the walk is ending.
          if (live == 0) break;
          continue;
        }
        const std::uint32_t depth = s.meta_[idx].depth;
        // Extend node with the new item t (t is new, so never contained).
        if (depth < phi) {
          const std::int32_t c = lanes.Acquire();
          double* cb = kernel.Block(c);
          std::memcpy(cb, kernel.Block(idx), stride_bytes);
          kernel.FoldRow(cb, row);
          lanes.Score(c, depth + 1, mset);
          collect(idx, t, mset);
          LaneMask kept = 0;
          if (depth + 1 < phi) {
            kept = lanes.Retain(c, depth + 1, mset);
            if (kept != 0) {
              s.meta_[c] = SearchScratch::NodeMeta{t, idx, depth + 1, 1};
              ++s.meta_[idx].refs;
              lanes.Hold(c, kept);
              s.next_q_.push_back(c);
            }
          }
          if (kept == 0) kernel.DiscardUnlinked(c);
        }
        // Re-evaluate the node itself against the tightened τ and η_lo.
        const LaneMask keep = lanes.Retain(idx, depth, mset);
        if (keep != 0) {
          lanes.Hold(idx, keep);
          s.next_q_.push_back(idx);
        } else {
          kernel.ReleaseFromQueue(idx);
        }
      }
      std::swap(s.q_, s.next_q_);
      if (live == 0) break;

      // Per-lane max_queue overflow: degrade gracefully. Each over-budget
      // lane keeps its max_queue best-bounded nodes — the result may no
      // longer be exact. The keep set is fixed by the (bound, Q+ position)
      // total order — positions are distinct, so nth_element's pivot
      // choice cannot change it — and survivors are re-queued in their
      // original relative order, keeping the walk deterministic and every
      // lane's overflow identical at any width. A node leaves the shared
      // queue only when no live lane holds it anymore.
      const LaneMask over = lanes.OverQueue(live);
      if (over != 0) {
        const std::size_t cap = limits.max_queue;
        for (LaneMask mm = over; mm != 0; mm &= mm - 1) {
          s.lane_bounds_[LowestLane(mm)].clear();
        }
        for (std::size_t i = 0; i < s.q_.size(); ++i) {
          const LaneMask held = lanes.Held(s.q_[i]) & over;
          if (held == 0) continue;
          const double* bounds = lanes.Bounds(s.q_[i], held);
          for (LaneMask mm = held; mm != 0; mm &= mm - 1) {
            const int j = LowestLane(mm);
            s.lane_bounds_[j].emplace_back(bounds[j], i);
          }
        }
        s.dropped_.assign(s.q_.size(), 0);
        for (LaneMask mm = over; mm != 0; mm &= mm - 1) {
          const int j = LowestLane(mm);
          lanes.Result(j).truncated = true;
          auto& pairs = s.lane_bounds_[j];
          std::nth_element(pairs.begin(),
                           pairs.begin() + static_cast<long>(cap),
                           pairs.end(), std::greater<>());
          for (std::size_t p = cap; p < pairs.size(); ++p) {
            s.dropped_[pairs[p].second] |= LaneMask{1} << j;
          }
        }
        s.next_q_.clear();
        for (std::size_t i = 0; i < s.q_.size(); ++i) {
          const std::int32_t idx = s.q_[i];
          const LaneMask held = lanes.Held(idx) & live & ~s.dropped_[i];
          if (held != 0) {
            lanes.Hold(idx, held);
            s.next_q_.push_back(idx);
          } else {
            kernel.ReleaseFromQueue(idx);
          }
        }
        std::swap(s.q_, s.next_q_);
      }

      // Per-lane termination: a finished lane retires from every further
      // bound check and expansion.
      for (LaneMask mm = live; mm != 0; mm &= mm - 1) {
        const int j = LowestLane(mm);
        if (Terminates(limits, lanes.Eta(j), lanes.Kth(j))) {
          exit_lanes(LaneMask{1} << j, false);
        }
      }
    }
  }

  WalkTally tally;
  tally.pruned = lanes.Finish();
  for (std::size_t j = 0; j < lanes.Width(); ++j) {
    tally.Add(lanes.Result(static_cast<int>(j)));
  }
  RecordWalk(tally, batched ? lanes.Width() : 0);
}

namespace {

// Argument checks shared by both entry points, over `count` weight vectors.
Status CheckSearchArgs(const PackageEvaluator& ev, std::size_t k,
                       const Vec* const* weights, std::size_t count) {
  if (k == 0) return Status::InvalidArgument("TopKPkgSearch: k must be >= 1");
  if (ev.phi() == 0) {
    return Status::InvalidArgument("TopKPkgSearch: phi must be >= 1");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (weights[i] == nullptr) {
      return Status::InvalidArgument("SearchBatch: null weight vector");
    }
    if (weights[i]->size() != ev.profile().num_features()) {
      return Status::InvalidArgument(
          "TopKPkgSearch: weight dimension mismatch");
    }
  }
  return Status::OK();
}

// An all-inactive signature: utility is identically 0 and the result is the
// lexicographic head (LexicographicTopK), not a walk.
bool AllInactive(const std::string& signature) {
  return signature.find_first_not_of('0') == std::string::npos;
}

}  // namespace

Result<SearchResult> TopKPkgSearch::Search(const Vec& weights, std::size_t k,
                                           const SearchLimits& limits,
                                           const PackageFilter* filter,
                                           SearchScratch* scratch) const {
  const Vec* const w = &weights;
  TOPKPKG_RETURN_IF_ERROR(CheckSearchArgs(*evaluator_, k, &w, 1));
  if (AllInactive(AccessSignature(evaluator_->profile(), weights))) {
    return LexicographicTopK(evaluator_->table().num_items(),
                             evaluator_->phi(), k, limits, filter);
  }
  SearchScratch::Lease lease(scratch);
  SearchResult result;
  TopKCollector collector(k);
  Walk<OneLane>(lease.scratch(), weights, limits, filter, /*batched=*/false,
                &collector, &result);
  return result;
}

Result<std::vector<SearchResult>> TopKPkgSearch::SearchBatch(
    const std::vector<const Vec*>& weights, std::size_t k,
    const SearchLimits& limits, const PackageFilter* filter,
    SearchScratch* scratch) const {
  TOPKPKG_RETURN_IF_ERROR(
      CheckSearchArgs(*evaluator_, k, weights.data(), weights.size()));
  std::vector<SearchResult> results(weights.size());
  if (weights.empty()) return results;

  // Records under the bound request's trace when one flows through the
  // serving path; a no-op measurement otherwise.
  obs::ScopedSpan batch_span("search_batch");

  SearchScratch::Lease lease(scratch);
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    groups[AccessSignature(evaluator_->profile(), *weights[i])].push_back(i);
  }
  // The SIMD suite every many-lane dot runs through (bit-identical per lane
  // whichever backend is picked).
  const model::AggBatchKernels& kern = model::AggBatchKernelsFor();

  for (const auto& [sig, lanes] : groups) {
    if (AllInactive(sig)) {
      for (std::size_t idx : lanes) {
        results[idx] = LexicographicTopK(evaluator_->table().num_items(),
                                         evaluator_->phi(), k, limits, filter);
      }
      continue;
    }
    for (std::size_t start = 0; start < lanes.size();
         start += kMaxBatchLanes) {
      const std::size_t* ids = lanes.data() + start;
      const std::size_t count = std::min(kMaxBatchLanes, lanes.size() - start);
      const Vec& w0 = *weights[ids[0]];
      if (count == 1) {
        TopKCollector collector(k);
        Walk<OneLane>(lease.scratch(), w0, limits, filter, /*batched=*/true,
                      &collector, &results[ids[0]]);
      } else {
        Walk<ManyLanes>(lease.scratch(), w0, limits, filter, /*batched=*/true,
                        k, weights, ids, count, kern, results);
      }
    }
  }
  return results;
}

}  // namespace topkpkg::topk
