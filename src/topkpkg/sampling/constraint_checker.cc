#include "topkpkg/sampling/constraint_checker.h"

#include <numeric>
#include <utility>

#include "topkpkg/model/aggregate_kernel.h"

namespace topkpkg::sampling {

bool ConstraintChecker::IsValid(const Vec& w, std::size_t* checks) const {
  for (const pref::Preference& p : constraints_) {
    if (checks != nullptr) ++*checks;
    if (!pref::Satisfies(w, p)) return false;
  }
  return true;
}

std::size_t ConstraintChecker::Violations(const Vec& w,
                                          std::size_t* checks) const {
  std::size_t violations = 0;
  for (const pref::Preference& p : constraints_) {
    if (checks != nullptr) ++*checks;
    if (!pref::Satisfies(w, p)) ++violations;
  }
  return violations;
}

std::vector<std::uint8_t> ConstraintChecker::IsValidBatch(
    const WeightBatch& batch, std::size_t* checks) const {
  const std::size_t n = batch.size();
  std::vector<std::uint8_t> valid(n, 1);
  if (n == 0 || constraints_.empty()) return valid;
  // Active-set scan: samples stay in play until their first violation. The
  // per-sample accumulation visits features in ascending order exactly like
  // Dot(), so the verdicts are bit-identical to IsValid()'s.
  std::vector<std::uint32_t> active(n);
  std::iota(active.begin(), active.end(), 0u);
  std::vector<double> acc;
  for (const pref::Preference& p : constraints_) {
    if (active.empty()) break;
    acc.assign(active.size(), 0.0);
    for (std::size_t f = 0; f < p.diff.size(); ++f) {
      const double d = p.diff[f];
      if (d == 0.0) continue;
      const double* col = batch.column(f);
      for (std::size_t j = 0; j < active.size(); ++j) {
        acc[j] += d * col[active[j]];
      }
    }
    if (checks != nullptr) *checks += active.size();
    std::size_t write = 0;
    for (std::size_t j = 0; j < active.size(); ++j) {
      if (acc[j] >= -pref::kSatisfiesEps) {
        active[write++] = active[j];
      } else {
        valid[active[j]] = 0;
      }
    }
    active.resize(write);
  }
  return valid;
}

PackageConstraintChecker::PackageConstraintChecker(
    const model::ItemTable* table, std::vector<AggregateThreshold> thresholds)
    : table_(table), thresholds_(std::move(thresholds)) {}

double PackageConstraintChecker::RawAggregate(
    const model::Package& package, const AggregateThreshold& t) const {
  return model::AggRawOverColumn(*table_, package.items(), t.feature, t.op);
}

bool PackageConstraintChecker::IsValid(const model::Package& package) const {
  for (const AggregateThreshold& t : thresholds_) {
    const double raw = RawAggregate(package, t);
    if (raw < t.lower || raw > t.upper) return false;
  }
  return true;
}

std::function<bool(const model::Package&)> PackageConstraintChecker::AsFilter()
    const {
  return [this](const model::Package& p) { return IsValid(p); };
}

}  // namespace topkpkg::sampling
