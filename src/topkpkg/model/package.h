#ifndef TOPKPKG_MODEL_PACKAGE_H_
#define TOPKPKG_MODEL_PACKAGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "topkpkg/common/vec.h"
#include "topkpkg/model/aggregate_kernel.h"
#include "topkpkg/model/item_table.h"
#include "topkpkg/model/profile.h"

namespace topkpkg::model {

// A package: a non-empty set of distinct items, stored sorted by ItemId so
// that equal packages compare equal structurally.
class Package {
 public:
  Package() = default;

  // Sorts and dedups `items`.
  static Package Of(std::vector<ItemId> items);

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const std::vector<ItemId>& items() const { return items_; }
  bool Contains(ItemId id) const;

  // A new package with `id` added (no-op copy if already present).
  Package With(ItemId id) const;

  // Canonical "id0,id1,..." string; usable as a map key and stable across
  // runs (the paper's deterministic tie-breaker is the package ID).
  std::string Key() const;

  friend bool operator==(const Package& a, const Package& b) {
    return a.items_ == b.items_;
  }
  friend bool operator!=(const Package& a, const Package& b) {
    return !(a == b);
  }
  friend bool operator<(const Package& a, const Package& b) {
    return a.items_ < b.items_;
  }

 private:
  std::vector<ItemId> items_;
};

// Pre-order walk of every package of size 1..phi over items [0, n), in
// lexicographic item-id order — the deterministic tie-break order of
// Sec. 2.1, and exactly the order NaivePackageEnumerator ranks ties in.
// `visit(current)` is called once per package with the current item chain
// (ascending; valid only during the call); return false to stop the walk.
// Shared by the oracle enumerator, the hard-constraint exact solver and the
// search's zero-active-weight tie-break path, so "same walk order" is true
// by construction rather than by three synchronized copies. Visits arrive
// in pre-order: each call's prefix (current minus its last item) was the
// previous surviving spine, which lets callers maintain incremental state
// keyed on current.size() (see NaivePackageEnumerator).
template <typename Visit>
void ForEachPackageLexicographic(std::size_t n, std::size_t phi,
                                 Visit&& visit) {
  std::vector<ItemId> current;
  std::vector<std::size_t> next_stack{0};
  while (!next_stack.empty()) {
    std::size_t& next = next_stack.back();
    if (next >= n || current.size() >= phi) {
      next_stack.pop_back();
      if (!current.empty()) current.pop_back();
      continue;
    }
    const ItemId t = static_cast<ItemId>(next++);
    current.push_back(t);
    if (!visit(static_cast<const std::vector<ItemId>&>(current))) return;
    next_stack.push_back(static_cast<std::size_t>(t) + 1);
  }
}

struct PackageHash {
  std::size_t operator()(const Package& p) const {
    std::size_t h = 1469598103934665603ULL;
    for (ItemId id : p.items()) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// Incrementally maintained aggregate values of a package under a fixed
// profile. Supports adding real item rows as well as the imaginary boundary
// item τ used by the Top-k-Pkg upper-bound estimation (Algorithm 3). All
// per-op arithmetic (fold, normalize, utility) delegates to
// model/aggregate_kernel.h — the one implementation every layer shares.
class AggregateState {
 public:
  AggregateState(const Profile* profile, const Normalizer* norm);

  // Folds one item row (NaN entries are nulls) into the aggregates.
  void Add(const Vec& row);

  // Same fold over a raw row span of `m` doubles (e.g. ItemTable::RowSpan),
  // so bulk callers never materialize a Vec per row.
  void Add(const double* row, std::size_t m);

  std::size_t size() const { return size_; }

  // The normalized feature vector of the current package. Features with no
  // non-null contributing value (and `null`-profiled features) evaluate to 0.
  Vec Normalized() const;

  // w · Normalized() without materializing the vector.
  double Utility(const Vec& weights) const;

  // Normalized aggregate value of one feature.
  double NormalizedFeature(std::size_t f) const;

  // Raw per-feature aggregates, for bound estimators (UpperExp) that pad a
  // state without copy-constructing it.
  double count(std::size_t f) const { return data_[kAggStripeWidth * f]; }
  double sum(std::size_t f) const { return data_[kAggStripeWidth * f + 1]; }
  double min(std::size_t f) const { return data_[kAggStripeWidth * f + 2]; }
  double max(std::size_t f) const { return data_[kAggStripeWidth * f + 3]; }
  // The flat [count,sum,min,max]-per-feature stripe block, in the layout
  // model/aggregate_kernel.h operates on (UpperExp bounds a state through
  // this view with zero copies).
  const double* stripes() const { return data_.data(); }
  const Profile& profile() const { return *profile_; }
  const Normalizer& normalizer() const { return *norm_; }

 private:
  const Profile* profile_;
  const Normalizer* norm_;
  std::size_t size_ = 0;
  // Per feature, packed [count, sum, min, max] in one allocation. The search
  // kernel itself keeps its states in SearchScratch's flat slab (same
  // per-feature packing) and never copies this struct on expansion.
  Vec data_;
};

// Binds an ItemTable, Profile and maximum package size φ together with the
// induced normalizer, and evaluates package feature vectors and utilities.
// It is also the catalog's search index: the constructor sorts each
// feature's items once (Sec. 4: "to facilitate efficient processing over
// different weight vectors, we order items based on their utility w.r.t.
// each individual feature") and counts its nulls, and every
// topk::TopKPkgSearch over this evaluator — any weight vector, any session,
// any thread — reads those immutable lists instead of sorting its own copy.
// The table and profile must outlive the evaluator.
class PackageEvaluator {
 public:
  PackageEvaluator(const ItemTable* table, const Profile* profile,
                   std::size_t phi);

  const ItemTable& table() const { return *table_; }
  const Profile& profile() const { return *profile_; }
  const Normalizer& normalizer() const { return norm_; }
  std::size_t phi() const { return phi_; }

  // Normalized aggregate feature vector p̂ of `package` (Definition 1 +
  // normalization).
  Vec FeatureVector(const Package& package) const;

  // U(p) = w · p̂ for the linear utility with weight vector `weights`.
  double Utility(const Package& package, const Vec& weights) const;

  // Fresh empty aggregate state bound to this evaluator's profile/normalizer.
  AggregateState NewState() const;

  // The search index of feature `f`: every item id ascending by its
  // effective value on f (ties by ascending id), and those values in the
  // same order. An effective value is the item's value with nulls folded
  // per aggregate (see EffectiveValue in package.cc). Both are empty for a
  // null-profiled feature, which no search reads.
  const std::vector<ItemId>& ascending_ids(std::size_t f) const {
    return ascending_ids_[f];
  }
  const Vec& ascending_values(std::size_t f) const {
    return ascending_values_[f];
  }
  // Items whose value on feature `f` is null. The search's null-aware bound
  // relaxation applies only to nullable columns, and a walk re-tightens it
  // once it has accessed this many null items.
  std::size_t null_count(std::size_t f) const { return null_count_[f]; }

 private:
  const ItemTable* table_;
  const Profile* profile_;
  std::size_t phi_;
  Normalizer norm_;
  std::vector<std::vector<ItemId>> ascending_ids_;
  std::vector<Vec> ascending_values_;
  std::vector<std::size_t> null_count_;
};

}  // namespace topkpkg::model

#endif  // TOPKPKG_MODEL_PACKAGE_H_
