#ifndef TOPKPKG_SAMPLING_CONSTRAINT_CHECKER_H_
#define TOPKPKG_SAMPLING_CONSTRAINT_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "topkpkg/common/vec.h"
#include "topkpkg/model/package.h"
#include "topkpkg/model/profile.h"
#include "topkpkg/pref/preference.h"
#include "topkpkg/pref/preference_set.h"
#include "topkpkg/sampling/sample.h"

namespace topkpkg::sampling {

// Validates candidate weight vectors against the elicited preference
// constraints. Construct it from a PreferenceSet either with every raw
// constraint (`FromAll`) or with the transitively reduced set (`FromReduced`,
// the Sec. 3.3 pruning): both accept exactly the same weight vectors, but the
// reduced set performs fewer w·diff evaluations — the effect measured in
// Fig. 5.
class ConstraintChecker {
 public:
  explicit ConstraintChecker(std::vector<pref::Preference> constraints)
      : constraints_(std::move(constraints)) {}

  static ConstraintChecker FromAll(const pref::PreferenceSet& set) {
    return ConstraintChecker(set.AllConstraints());
  }
  static ConstraintChecker FromReduced(const pref::PreferenceSet& set) {
    return ConstraintChecker(set.ReducedConstraints());
  }

  std::size_t num_constraints() const { return constraints_.size(); }
  const std::vector<pref::Preference>& constraints() const {
    return constraints_;
  }

  // True iff w satisfies every constraint. `checks`, when provided, is
  // incremented once per dot-product evaluated (short-circuits on first
  // violation).
  bool IsValid(const Vec& w, std::size_t* checks = nullptr) const;

  // Number of violated constraints (no short-circuit; used by the noise
  // model, which needs the exact violation count x for 1-(1-ψ)^x).
  std::size_t Violations(const Vec& w, std::size_t* checks = nullptr) const;

  // Batched validity: entry i is 1 iff batch sample i satisfies every
  // constraint — the same verdicts as per-sample IsValid(). Iterates
  // constraints outer / samples inner over the struct-of-arrays view, and
  // compacts the surviving samples after each constraint, so a sample pays
  // for exactly the constraints IsValid() would evaluate before its first
  // violation. `checks`, when provided, counts those dot products — it
  // matches the sum of per-sample IsValid() check counts.
  std::vector<std::uint8_t> IsValidBatch(const WeightBatch& batch,
                                         std::size_t* checks = nullptr) const;

 private:
  std::vector<pref::Preference> constraints_;
};

// A hard aggregate-threshold constraint over packages (the Sec. 7 "schema
// constraint" family expressed over aggregates): the raw (unnormalized)
// aggregate of `feature` under `op` must lie in [lower, upper]. Defaults
// make either side optional.
struct AggregateThreshold {
  std::size_t feature = 0;
  model::AggregateOp op = model::AggregateOp::kSum;
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
};

// Validates packages against a conjunction of aggregate thresholds. All
// aggregate arithmetic delegates to model/aggregate_kernel.h — the same
// fold/normalize rules the model, search and oracle layers score packages
// with (null skipping, count-0 min/max = 0, avg over the full package size)
// — so a threshold verdict can never disagree with the aggregates a package
// is ranked under. `table` must outlive the checker.
class PackageConstraintChecker {
 public:
  PackageConstraintChecker(const model::ItemTable* table,
                           std::vector<AggregateThreshold> thresholds);

  std::size_t num_thresholds() const { return thresholds_.size(); }
  const std::vector<AggregateThreshold>& thresholds() const {
    return thresholds_;
  }

  // True iff every threshold holds for `package` (short-circuits on the
  // first violation).
  bool IsValid(const model::Package& package) const;

  // Raw aggregate of one threshold's feature over `package` (diagnostics,
  // and the single evaluation IsValid folds per threshold).
  double RawAggregate(const model::Package& package,
                      const AggregateThreshold& t) const;

  // Adapter usable as a TopKPkgSearch::PackageFilter ("at least…/at most…"
  // schema predicates pushed into the search). Captures `this`; the checker
  // must outlive the returned filter.
  std::function<bool(const model::Package&)> AsFilter() const;

 private:
  const model::ItemTable* table_;
  std::vector<AggregateThreshold> thresholds_;
};

}  // namespace topkpkg::sampling

#endif  // TOPKPKG_SAMPLING_CONSTRAINT_CHECKER_H_
