#ifndef TOPKPKG_COMMON_SIMD_H_
#define TOPKPKG_COMMON_SIMD_H_

// Portable f64 SIMD lanes for the batched search's aggregate kernels.
//
// Each backend lives in its own namespace (avx2 / sse2 / scalar) and
// exposes the same tiny value type `F64x`: Load / Store / Broadcast / Zero
// plus `+` and `*`. Backends are compile-time gated on the instruction sets
// the *current translation unit* was built for, so a TU compiled with
// `-mavx2` sees `avx2::F64x` while a baseline TU does not — the namespaces
// keep the two from ever colliding at link time. `namespace best` aliases
// the widest backend available to the including TU; note that the alias (and
// anything whose definition depends on it) is therefore per-TU, so only
// TU-local code may use it. Runtime selection between differently-compiled
// kernel TUs happens in model/aggregate_kernel.cc (AggBatchKernelsFor), not
// here.
//
// The abstraction is deliberately minimal: a multiply-add stream with
// separate mul and add (no FMA — the batched search guarantees bit-identity
// with the scalar `Search()` path, and a contracted fused multiply-add
// rounds differently), plus the mask ops the kernels' per-lane Lemma-3
// bookkeeping needs. The mask ops are specified by their scalar-reference
// semantics, NaN cases included:
//
//   CmpLE(a, b)   all-ones where a <= b, else zero; any NaN compares false
//                 (quiet/ordered — x86 _CMP_LE_OQ).
//   Max(a, b)     per lane (a < b) ? b : a — i.e. the *first* operand wins
//                 on NaN or equality, matching std::max(a, b). On x86 this
//                 is max_pd with the operands swapped (max_pd(b, a) returns
//                 a when either compares unordered).
//   Or/AndNot     bitwise on the f64 lane patterns; AndNot(m, x) = ~m & x.
//   Blend(m,x,y)  per lane m ? x : y. Masks are always all-ones/all-zero
//                 here, so sign-bit blends (blendv_pd) and full bitwise
//                 selects agree.
//   MoveMask(m)   one bit per lane from the lane's sign bit (bit j = lane j).
//   AllOnes()     every bit set (an all-ones NaN pattern, used as a mask).
//   GatherIdx(p, idx)  lane t = p[idx[t]] for kWidth 32-bit indices — the
//                 sparse kernels' strided wcol reads (a real vgatherdpd on
//                 AVX2, lane-composed loads elsewhere). Pure loads, so lane
//                 values are bit-identical to scalar indexing.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__) || \
    defined(_M_X64)
#include <immintrin.h>
#endif

namespace topkpkg::simd {

// Always available — the only backend on targets other than x86-64 (e.g.
// aarch64) — and the tail-lane fallback of every vector backend.
namespace scalar {
struct F64x {
  double v;
  static constexpr std::size_t kWidth = 1;
  static constexpr const char* Name() { return "scalar"; }
  static F64x Load(const double* p) { return {*p}; }
  static F64x Broadcast(double x) { return {x}; }
  static F64x Zero() { return {0.0}; }
  void Store(double* p) const { *p = v; }
  friend F64x operator+(F64x a, F64x b) { return {a.v + b.v}; }
  friend F64x operator*(F64x a, F64x b) { return {a.v * b.v}; }
  static std::uint64_t Bits(F64x a) {
    std::uint64_t r;
    std::memcpy(&r, &a.v, sizeof(r));
    return r;
  }
  static F64x FromBits(std::uint64_t b) {
    F64x r;
    std::memcpy(&r.v, &b, sizeof(b));
    return r;
  }
  static F64x Max(F64x a, F64x b) { return {(a.v < b.v) ? b.v : a.v}; }
  static F64x CmpLE(F64x a, F64x b) {
    return FromBits(a.v <= b.v ? ~std::uint64_t{0} : 0);
  }
  static F64x Or(F64x a, F64x b) { return FromBits(Bits(a) | Bits(b)); }
  static F64x AndNot(F64x m, F64x x) { return FromBits(~Bits(m) & Bits(x)); }
  static F64x Blend(F64x m, F64x x, F64x y) {
    return FromBits((Bits(m) & Bits(x)) | (~Bits(m) & Bits(y)));
  }
  static int MoveMask(F64x a) { return static_cast<int>(Bits(a) >> 63); }
  static F64x AllOnes() { return FromBits(~std::uint64_t{0}); }
  static F64x GatherIdx(const double* p, const std::uint32_t* idx) {
    return {p[idx[0]]};
  }
};
}  // namespace scalar

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
namespace sse2 {
struct F64x {
  __m128d v;
  static constexpr std::size_t kWidth = 2;
  static constexpr const char* Name() { return "sse2"; }
  static F64x Load(const double* p) { return {_mm_loadu_pd(p)}; }
  static F64x Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static F64x Zero() { return {_mm_setzero_pd()}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }
  friend F64x operator+(F64x a, F64x b) { return {_mm_add_pd(a.v, b.v)}; }
  friend F64x operator*(F64x a, F64x b) { return {_mm_mul_pd(a.v, b.v)}; }
  // max_pd(b, a): returns the *second* source (a) on NaN/equal == std::max.
  static F64x Max(F64x a, F64x b) { return {_mm_max_pd(b.v, a.v)}; }
  static F64x CmpLE(F64x a, F64x b) { return {_mm_cmple_pd(a.v, b.v)}; }
  static F64x Or(F64x a, F64x b) { return {_mm_or_pd(a.v, b.v)}; }
  static F64x AndNot(F64x m, F64x x) { return {_mm_andnot_pd(m.v, x.v)}; }
  static F64x Blend(F64x m, F64x x, F64x y) {
    // No blendv before SSE4.1; masks are all-ones/zero so bitwise select.
    return {_mm_or_pd(_mm_and_pd(m.v, x.v), _mm_andnot_pd(m.v, y.v))};
  }
  static int MoveMask(F64x a) { return _mm_movemask_pd(a.v); }
  static F64x AllOnes() {
    return {_mm_castsi128_pd(_mm_set1_epi64x(-1))};
  }
  static F64x GatherIdx(const double* p, const std::uint32_t* idx) {
    return {_mm_set_pd(p[idx[1]], p[idx[0]])};
  }
};
}  // namespace sse2
#endif

#if defined(__AVX2__)
namespace avx2 {
struct F64x {
  __m256d v;
  static constexpr std::size_t kWidth = 4;
  static constexpr const char* Name() { return "avx2"; }
  static F64x Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static F64x Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static F64x Zero() { return {_mm256_setzero_pd()}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  friend F64x operator+(F64x a, F64x b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend F64x operator*(F64x a, F64x b) { return {_mm256_mul_pd(a.v, b.v)}; }
  // max_pd(b, a): returns the *second* source (a) on NaN/equal == std::max.
  static F64x Max(F64x a, F64x b) { return {_mm256_max_pd(b.v, a.v)}; }
  static F64x CmpLE(F64x a, F64x b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  static F64x Or(F64x a, F64x b) { return {_mm256_or_pd(a.v, b.v)}; }
  static F64x AndNot(F64x m, F64x x) { return {_mm256_andnot_pd(m.v, x.v)}; }
  static F64x Blend(F64x m, F64x x, F64x y) {
    return {_mm256_blendv_pd(y.v, x.v, m.v)};
  }
  static int MoveMask(F64x a) { return _mm256_movemask_pd(a.v); }
  static F64x AllOnes() {
    return {_mm256_castsi256_pd(_mm256_set1_epi64x(-1))};
  }
  static F64x GatherIdx(const double* p, const std::uint32_t* idx) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(p, vi, sizeof(double))};
  }
};
}  // namespace avx2
#endif

// The widest backend this TU's compile flags allow.
#if defined(__AVX2__)
namespace best = avx2;
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
namespace best = sse2;
#else
namespace best = scalar;
#endif

}  // namespace topkpkg::simd

#endif  // TOPKPKG_COMMON_SIMD_H_
