// Baseline-ISA instantiation of the vectorized batched aggregate kernels:
// compiled with the project's default flags, so the backend is whatever the
// target guarantees everywhere (SSE2 on x86-64, scalar elsewhere). Selected
// by AggBatchKernelsFor when the CPU lacks AVX2 or the AVX2 TU wasn't built.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "topkpkg/common/simd.h"
#include "topkpkg/model/aggregate_kernel.h"

#define TOPKPKG_LANES_NS lanes_base
#define TOPKPKG_LANES_V ::topkpkg::simd::best::F64x
#include "topkpkg/model/aggregate_kernel_lanes.inc"
