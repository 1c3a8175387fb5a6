#include "topkpkg/model/package.h"

#include <algorithm>
#include <utility>

#include "topkpkg/model/aggregate_kernel.h"

namespace topkpkg::model {

namespace {

// Effective per-list value of an item on a feature aggregated by `op`: the
// value that both drives the sorted-list access order and enters the
// search's boundary item τ. Nulls behave like 0 for sum/avg/max (they
// contribute nothing) and like the feature maximum `max_value` for min (they
// leave the minimum untouched, which is the best possible behaviour when a
// large minimum is desired and the worst when a small one is).
double EffectiveValue(double v, AggregateOp op, double max_value) {
  if (!IsNull(v)) return v;
  return op == AggregateOp::kMin ? max_value : 0.0;
}

}  // namespace

Package Package::Of(std::vector<ItemId> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  Package p;
  p.items_ = std::move(items);
  return p;
}

bool Package::Contains(ItemId id) const {
  return std::binary_search(items_.begin(), items_.end(), id);
}

Package Package::With(ItemId id) const {
  Package p(*this);
  auto it = std::lower_bound(p.items_.begin(), p.items_.end(), id);
  if (it == p.items_.end() || *it != id) p.items_.insert(it, id);
  return p;
}

std::string Package::Key() const {
  std::string key;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(items_[i]);
  }
  return key;
}

AggregateState::AggregateState(const Profile* profile, const Normalizer* norm)
    : profile_(profile),
      norm_(norm),
      data_(kAggStripeWidth * profile->num_features()) {
  AggInitStripes(data_.data(), profile->num_features());
}

void AggregateState::Add(const Vec& row) { Add(row.data(), row.size()); }

void AggregateState::Add(const double* row, std::size_t m) {
  ++size_;
  AggFoldRow(data_.data(), row, m);
}

double AggregateState::NormalizedFeature(std::size_t f) const {
  return AggRaw(&data_[kAggStripeWidth * f], profile_->op(f), size_) /
         norm_->scale[f];
}

Vec AggregateState::Normalized() const {
  const std::size_t m = profile_->num_features();
  Vec out(m);
  for (std::size_t f = 0; f < m; ++f) out[f] = NormalizedFeature(f);
  return out;
}

double AggregateState::Utility(const Vec& weights) const {
  const AggregatePlan plan{profile_->ops().data(), weights.data(),
                           norm_->scale.data(), weights.size()};
  return AggUtility(plan, data_.data(), size_);
}

PackageEvaluator::PackageEvaluator(const ItemTable* table,
                                   const Profile* profile, std::size_t phi)
    : table_(table),
      profile_(profile),
      phi_(phi),
      norm_(ComputeNormalizer(*table, *profile, phi)) {
  const std::size_t m = profile->num_features();
  const std::size_t n = table->num_items();
  ascending_ids_.resize(m);
  ascending_values_.resize(m);
  null_count_.assign(m, 0);
  // Values are finite (ItemTable validates them, and EffectiveValue maps
  // nulls to finite values), so the (value, id) pair order is total and
  // std::sort's result is unique.
  std::vector<std::pair<double, ItemId>> keyed(n);
  for (std::size_t f = 0; f < m; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      if (table->is_null(static_cast<ItemId>(i), f)) ++null_count_[f];
    }
    const AggregateOp op = profile->op(f);
    if (op == AggregateOp::kNull) continue;
    const double max_value = table->MaxFeatureValue(f);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<ItemId>(i);
      keyed[i] = {EffectiveValue(table->value(id, f), op, max_value), id};
    }
    std::sort(keyed.begin(), keyed.end());
    ascending_ids_[f].resize(n);
    ascending_values_[f].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ascending_values_[f][i] = keyed[i].first;
      ascending_ids_[f][i] = keyed[i].second;
    }
  }
}

Vec PackageEvaluator::FeatureVector(const Package& package) const {
  AggregateState state(profile_, &norm_);
  const std::size_t m = table_->num_features();
  for (ItemId id : package.items()) state.Add(table_->RowSpan(id), m);
  return state.Normalized();
}

double PackageEvaluator::Utility(const Package& package,
                                 const Vec& weights) const {
  return Dot(FeatureVector(package), weights);
}

AggregateState PackageEvaluator::NewState() const {
  return AggregateState(profile_, &norm_);
}

}  // namespace topkpkg::model
