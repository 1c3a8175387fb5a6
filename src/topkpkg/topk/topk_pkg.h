#ifndef TOPKPKG_TOPK_TOPK_PKG_H_
#define TOPKPKG_TOPK_TOPK_PKG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "topkpkg/common/status.h"
#include "topkpkg/common/vec.h"
#include "topkpkg/model/package.h"
#include "topkpkg/model/utility.h"

namespace topkpkg::topk {

// Safety valves for the branch-and-bound search. With the defaults the
// search is exact; `max_expansions` bounds the total number of
// package-expansion steps so a pathological instance degrades into a
// truncated (best-effort) result instead of an out-of-memory run.
struct SearchLimits {
  std::size_t max_expansions = 50'000'000;
  // Budget on sorted-list accesses. The paper's composite boundary item τ
  // (the per-feature frontier maxima) can stay far above any real package
  // when several independent features carry weight, forcing the exact search
  // to walk most of the lists before η_up collapses; interactive callers cap
  // the walk and accept a truncated (head-of-lists) result instead.
  std::size_t max_items_accessed = std::numeric_limits<std::size_t>::max();
  // Upper bound on |Q+|; when exceeded, the least-promising expandable
  // packages (smallest upper bound) are dropped and the result is marked
  // truncated.
  std::size_t max_queue = 1'000'000;
  // Packages are kept expandable only while their upper bound strictly
  // beats the current k-th best utility. When aggregates plateau (max/min
  // tie constantly) a package tied exactly at the boundary may then resolve
  // differently from the brute-force oracle's deterministic tie-break.
  // Setting this retains and surfaces boundary ties too — exact for every
  // profile including ties — at the cost of a larger search frontier.
  bool expand_on_ties = false;
};

// One ranked package.
struct ScoredPackage {
  model::Package package;
  double utility = 0.0;
};

struct SearchResult {
  // Top-k packages, best first; ties broken by ascending item-id sequence
  // (the deterministic package-ID tie-breaker of Sec. 2.1).
  std::vector<ScoredPackage> packages;
  bool truncated = false;          // A safety valve fired; may be inexact.
  std::size_t items_accessed = 0;  // Sorted-list getNext() calls.
  std::size_t packages_generated = 0;
  std::size_t expansions = 0;      // Q+ iterations (work measure).
};

// Deterministic ordering used everywhere packages are ranked: higher utility
// first, then lexicographically smaller item-id sequence.
bool BetterThan(const ScoredPackage& a, const ScoredPackage& b);

// Internal per-call kernel and the two lane policies of the one Top-k-Pkg
// walk (defined in topk_pkg.cc); named here only so SearchScratch can
// befriend them.
class SearchKernel;
class OneLane;
class ManyLanes;

// A batched walk scores at most this many weight vectors ("lanes") per
// shared frontier: per-node lane membership is one 64-bit mask word.
// SearchBatch chunks wider pools internally.
inline constexpr std::size_t kMaxBatchLanes = 64;

// Reusable working memory of the Top-k-Pkg walk, shared by Search() and
// SearchBatch(). Everything the steady-state inner loop touches lives here:
// the slab node arena (packages encoded as parent-pointer chains, aggregates
// as flat [count,sum,min,max] stripes), the ping-pong Q+ index buffers, the
// UpperExp pad accumulators, the generation-counter seen bitset, and — for
// walks of several lanes — per-node lane masks, column-major lane weights
// and the lane-wide buffers the batched aggregate kernels write into.
// Capacities persist across calls — even across calls against different
// search objects, evaluators, dimensions or lane counts — so after warm-up a
// walk performs zero heap allocations per expansion. Not thread-safe: use
// one scratch per thread (both entry points default to one thread_local
// instance when none is passed).
class SearchScratch {
 public:
  SearchScratch() = default;
  SearchScratch(const SearchScratch&) = delete;
  SearchScratch& operator=(const SearchScratch&) = delete;

 private:
  friend class TopKPkgSearch;
  friend class SearchKernel;
  friend class OneLane;
  friend class ManyLanes;
  class Lease;

  // One arena node: the package is the item chain to the root, its
  // aggregates live in the parallel slab `agg_` at the same index. `refs`
  // counts live children plus one while the node sits in Q+; a node's slot
  // is recycled (cascading up the chain) when it leaves Q+ with no live
  // descendants, so the arena's footprint tracks the live frontier, not the
  // total number of packages generated.
  struct NodeMeta {
    model::ItemId item = 0;
    std::int32_t parent = -1;  // Arena index of the parent; -1 = root.
    std::uint32_t depth = 0;   // Package size along the chain.
    std::uint32_t refs = 0;
  };

  std::vector<NodeMeta> meta_;
  std::vector<double> agg_;  // meta_[i]'s block at agg_[i * 4 * #active].
  std::vector<std::int32_t> free_;

  // Per-call evaluation plan over the active features (nonzero weight, real
  // aggregation), ascending by feature id.
  std::vector<std::size_t> active_;
  std::vector<model::AggregateOp> op_;
  std::vector<double> weight_;
  std::vector<double> scale_;
  std::vector<double> tau_;  // Boundary item τ, effective values.
  std::vector<std::size_t> cursor_;
  // Per active feature: the evaluator's sorted list in this walk's access
  // order, resolved once per walk so the item loop reads access `pos` with
  // one indexed load, ids[first + step * pos], and no lookups through the
  // evaluator.
  struct ListView {
    const model::ItemId* ids = nullptr;
    const double* values = nullptr;
    std::ptrdiff_t first = 0;  // Index of the first access.
    std::ptrdiff_t step = 1;   // +1 forwards, -1 backwards.
  };
  std::vector<ListView> lists_;

  // Null-aware bound relaxation: flags the min-aggregated negative-weight
  // features over nullable columns whose count-0 contribution (exactly 0)
  // must be carried explicitly in upper bounds, and the per-bound resolved
  // weight scratch (see AggResolveBoundWeights in model/aggregate_kernel.h).
  // The relaxation re-tightens mid-walk: `null_left_` counts each relaxed
  // feature's not-yet-accessed null items, and once it hits 0 every package
  // extension folds a real value there, so the plain τ arithmetic is
  // admissible again and the relax bit is cleared (`relaxed_active_` is the
  // number of still-relaxed features, the bound code's fast-path gate).
  std::vector<std::uint8_t> relax_;
  std::vector<double> bound_weight_;
  std::vector<std::size_t> null_left_;
  std::size_t relaxed_active_ = 0;

  // Q+ double buffer: each round-robin step drains q_ into next_q_ and
  // swaps, reproducing the reference rebuild order without reallocating.
  std::vector<std::int32_t> q_;
  std::vector<std::int32_t> next_q_;

  // UpperExp pad accumulators (one [count,sum,min,max] block).
  std::vector<double> pad_;

  // Seen-items set cleared in O(1) by bumping generation_ instead of
  // re-zeroing n bits per walk.
  std::vector<std::uint32_t> seen_;
  std::uint32_t generation_ = 0;

  // max_queue overflow: per over-budget lane its (bound, Q+ position)
  // pairs, and per Q+ position the lanes that dropped the node.
  std::vector<std::vector<std::pair<double, std::size_t>>> lane_bounds_;
  std::vector<std::uint64_t> dropped_;

  // Item-id assembly buffer for materializing collected packages.
  std::vector<model::ItemId> items_;

  // Aggregate block for the canonical re-fold of collected candidates: the
  // chain folds accumulate in access order, but the utility a candidate is
  // *ranked* by is re-folded in ascending item-id order — the oracle's fold
  // order — so tied-as-exact-reals utilities round to the same bits in both
  // and the tie order matches the oracle on any data, not just when the
  // utilities happen to be FP-identical.
  std::vector<double> refold_;

  // Lane dimension of a many-lane walk (W = the walk's lane count).
  std::vector<std::uint64_t> mask_;      // Per arena node: active-lane bits.
  std::vector<double> wcol_;             // Column-major lane weights, na × W.
  std::vector<double> raw_norm_;         // Shared normalized raws, na.
  std::vector<double> peek_norm_;        // Shared normalized peek raws, na.
  std::vector<std::uint8_t> skip_;       // Shared bound skip set, na.
  std::vector<double> lane_u_;           // Per-lane utilities, W.
  std::vector<double> lane_peek_;        // Per-lane peek/canonical values, W.
  std::vector<double> lane_bound_;       // Per-lane τ-padded bounds, W.
  std::vector<double> lane_eta_;         // Per-lane η_up, W.
  std::vector<std::uint8_t> lane_stop_;  // Per-lane greedy-stop flags, W.
  std::vector<std::size_t> lane_qlen_;   // Per-lane |Q+|, W.
  // Cached per-lane collector state + flat work counters: the sweep's
  // per-node lane loops read/increment these branchlessly instead of
  // calling into the collectors per (node, lane).
  std::vector<double> lane_kth_;         // collectors[j].KthUtility(), W.
  std::vector<std::size_t> lane_exp_;    // Per-lane expansions, W.
  std::vector<std::size_t> lane_gen_;    // Per-lane packages generated, W.
  // Compact live-lane index lists for the gather kernels (masks thin out as
  // lanes prune, so most nodes touch a fraction of the batch width). Two
  // buffers because a node's bound evaluation and its candidate's admission
  // subset are live at the same time.
  std::vector<std::uint32_t> lane_idx_;  // Node-mask lane list, W.
  std::vector<std::uint32_t> lane_idx2_; // Admission-subset lane list, W.
  // Bit-sliced per-lane counters: plane p holds bit p of every lane's count,
  // so charging a node to all lanes of its mask is an amortized-O(1)
  // carry-save add instead of a pop-every-bit loop. The exact per-lane
  // counts are materialized only when a budget (max_expansions / max_queue)
  // comes within reach — until then no lane can have crossed it, because a
  // lane's count is bounded by the number of adds.
  std::vector<std::uint64_t> exp_planes_;   // Expansion counts, 64 planes.
  std::vector<std::uint64_t> qlen_planes_;  // |Q+| counts, 64 planes.
  // Per arena node: the lanes' chain-fold utilities at creation (W doubles
  // per node, parallel to mask_). A node's τ-padded bound starts from its
  // plain utility — a τ-independent value — so every re-evaluation of the
  // node against a tightened τ seeds the bound kernels from this cache
  // instead of re-normalizing and re-dotting the block. Lanes outside the
  // node's creation mask hold stale values, which is fine: eval masks only
  // ever shrink, so a lane's seed is read only if it was evaluated at
  // creation.
  std::vector<double> base_u_;

  // True while a walk is running on this scratch. A nested call that lands
  // on a busy scratch (e.g. a PackageFilter callback invoking another
  // Search or SearchBatch with the default thread_local scratch) falls back
  // to a private one instead of corrupting the outer call's live arena.
  bool in_use_ = false;
};

// Access signature of weight vector `w` under `profile`: per feature '0'
// (inactive — zero weight or null-profiled), '+', '-', or 'n' (NaN). Weight
// vectors with equal signatures share the walk's item access order,
// boundary vector τ, relax mask and set-monotonicity, so SearchBatch runs
// one shared walk per signature; callers that chunk pools for SearchBatch
// sort by it to keep chunks homogeneous. All '0' means no active feature.
std::string AccessSignature(const model::Profile& profile, const Vec& w);

// Algorithm 2 (Top-k-Pkg): top-k packages of size <= evaluator.phi() for a
// fixed weight vector. Items are sorted per active feature by marginal
// desirability (descending value for positive weight, ascending for
// negative; nulls last), accessed round-robin; the boundary vector τ of
// last-accessed values yields an upper bound on every package still
// containing unseen items (Algorithm 3, `upper-exp`), and candidate packages
// are expanded with each newly accessed item (Algorithm 4) using the
// improvement test U(p ∪ {t}) > U(p) and the two-queue Q+/Q− pruning. The
// search stops as soon as the upper bound η_up falls to the current k-th
// best utility η_lo.
class TopKPkgSearch {
 public:
  // `evaluator` must outlive the search object. Construction is
  // constant-time: the search is a view over the per-feature item lists the
  // evaluator sorted once for its catalog (PackageEvaluator::ascending_ids,
  // Sec. 4), which Search() walks forwards or backwards depending on the
  // weight signs — so no search, and no session, pays a sorting cost, and
  // every search object over one evaluator shares one copy of the lists.
  explicit TopKPkgSearch(const model::PackageEvaluator* evaluator)
      : evaluator_(evaluator) {}

  // Sec. 7 extension: an optional schema predicate over candidate packages
  // ("at least two books must be novels"). Non-passing packages are still
  // expanded — a failing package can extend into a passing one — but never
  // enter the result.
  using PackageFilter = std::function<bool(const model::Package&)>;

  // `scratch` is the call's working memory; pass one to pin reuse to a
  // caller-owned arena (e.g. one per worker thread, or in tests), or leave
  // it null to reuse a thread_local scratch automatically. The result is
  // identical either way, and independent of any state a previous call left
  // in the scratch.
  //
  // Search() is the one-lane instantiation of the walk: scalar aggregate
  // arithmetic, one collector, plain counters.
  Result<SearchResult> Search(const Vec& weights, std::size_t k,
                              const SearchLimits& limits = {},
                              const PackageFilter* filter = nullptr,
                              SearchScratch* scratch = nullptr) const;

  // Batched Algorithm 2: the top-k searches of many weight vectors run as
  // shared branch-and-bound walks. Weight vectors are grouped by
  // AccessSignature, because a group's members share the exact item access
  // order, boundary vector τ, and relax mask; each group then runs ONE walk
  // that expands every frontier node once and evaluates utilities and bounds
  // for all its lanes through the batched aggregate kernels
  // (model/aggregate_kernel.h). A node stays in the shared Q+ while any
  // lane's bound admits it, and per-node lane masks keep each lane's view of
  // the queue exactly the subsequence its one-lane walk would hold — so
  // results[i] is bit-identical to Search(*weights[i], ...): packages,
  // utilities, tie order, truncation flags and all counters
  // (search_batch_property_test and search_golden_test enforce this). A
  // group of one lane takes the one-lane walk; groups wider than
  // kMaxBatchLanes are chunked; entries must be non-null. The many-lane
  // walks run on the widest kernel suite the CPU supports
  // (model::AggBatchKernelsFor); every suite is bit-identical per lane.
  Result<std::vector<SearchResult>> SearchBatch(
      const std::vector<const Vec*>& weights, std::size_t k,
      const SearchLimits& limits = {}, const PackageFilter* filter = nullptr,
      SearchScratch* scratch = nullptr) const;

 private:
  // The one Top-k-Pkg branch-and-bound walk over the signature group whose
  // representative weight vector is `w0`: the per-call plan, τ, cursors and
  // seen set, the item loop, singleton expansion, the Q+ sweep, per-lane
  // max_queue overflow, termination and lane exits. `Lanes` (OneLane or
  // ManyLanes, built from `lane_args`) owns the per-lane arithmetic and
  // state — utilities, bounds, collectors, counters, node lane masks.
  // `batched` selects the metrics the walk is recorded under (a SearchBatch
  // group walk, or a Search() call).
  template <class Lanes, class... LaneArgs>
  void Walk(SearchScratch& s, const Vec& w0, const SearchLimits& limits,
            const PackageFilter* filter, bool batched,
            LaneArgs&&... lane_args) const;

  const model::PackageEvaluator* evaluator_;
};

// Algorithm 3 (`upper-exp`): upper-bounds the utility achievable by
// extending `state` with up to `slots` copies of the imaginary boundary item
// `tau_row`; for set-monotone U all slots are filled, otherwise padding
// stops at the first non-positive marginal gain (Lemma 3 makes the greedy
// stop correct). This is the public reference entry point over a full
// AggregateState; it and the walk's scratch-resident bounds (one-lane and
// batched) delegate to the one implementation in model/aggregate_kernel.h
// (AggTauPaddedBound), so their arithmetic cannot drift.
//
// `nullable_columns`, when provided (per-feature: 1 iff the column may hold
// nulls), enables the null-aware relaxation for min-aggregated features with
// negative weight: a package with no non-null value on such a feature
// contributes exactly 0 there — more than any τ-padded minimum under a
// negative weight — so those features' bound contribution is floored at the
// count-0 value. Without it the bound is NOT admissible for packages of
// null items on such features (the pre-kernel exactness gap).
double UpperExp(const model::AggregateState& state, const Vec& tau_row,
                const Vec& weights, std::size_t slots, bool set_monotone,
                const std::vector<std::uint8_t>* nullable_columns = nullptr);

}  // namespace topkpkg::topk

#endif  // TOPKPKG_TOPK_TOPK_PKG_H_
