#include "topkpkg/model/aggregate_kernel.h"

#include "topkpkg/obs/metrics.h"

namespace topkpkg::model {

// Per-ISA suites, each defined by one aggregate_kernel_lanes_*.cc TU. The
// AVX2 one exists only when CMake found a compiler that takes -mavx2 (it
// then defines TOPKPKG_HAVE_AVX2_TU on this file); it is entered only after
// the cpuid check below, so the binary stays runnable on pre-AVX2 CPUs.
namespace lanes_base {
extern const AggBatchKernels kKernels;
}  // namespace lanes_base
#if defined(TOPKPKG_HAVE_AVX2_TU)
namespace lanes_avx2 {
extern const AggBatchKernels kKernels;
}  // namespace lanes_avx2
#endif

namespace {

const AggBatchKernels& PickKernels() {
#if defined(TOPKPKG_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) return lanes_avx2::kKernels;
#endif
  return lanes_base::kKernels;
}

// Surfaces which suite the dispatch resolved to, as a one-hot gauge family:
// topkpkg_simd_suite{backend="avx2"} 1.
const AggBatchKernels& ExportDispatchedSuite(const AggBatchKernels& suite) {
  obs::MetricsRegistry::Global()
      .GetGauge("topkpkg_simd_suite",
                "Dispatched SIMD kernel suite (1 = in use)",
                "backend=\"" + std::string(suite.backend) + "\"")
      ->Set(1.0);
  return suite;
}

}  // namespace

const AggBatchKernels& AggBatchKernelsFor() {
  // Magic-static: the cpuid probe and the gauge write run once,
  // thread-safely, so dispatch stays a table lookup.
  static const AggBatchKernels& suite = ExportDispatchedSuite(PickKernels());
  return suite;
}

double AggRawOverColumn(const ItemTable& table,
                        const std::vector<ItemId>& items, std::size_t feature,
                        AggregateOp op) {
  double cell[kAggStripeWidth];
  AggInitStripes(cell, 1);
  for (ItemId id : items) {
    const double v = table.value(id, feature);
    if (!IsNull(v)) AggFoldValue(cell, v);
  }
  return AggRaw(cell, op, items.size());
}

}  // namespace topkpkg::model
