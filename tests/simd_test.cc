// Unit tests for the portable SIMD layer (common/simd.h) and the batched
// aggregate kernel suites built on it (model/aggregate_kernel_lanes.inc).
//
// Two levels:
//   1. Lane-op semantics — every vector backend this TU can instantiate
//      (scalar always, plus the baseline-ISA backend `simd::best`) must
//      match the scalar reference ternaries bit-for-bit on every lane,
//      including the NaN / signed-zero / infinity cases the header comment
//      specifies (Max's first-operand-wins rule, CmpLE's quiet-ordered
//      NaN→false, sign-bit MoveMask, GatherIdx as pure loads).
//   2. Kernel suites — every suite the library compiled (the baseline-ISA
//      suite always; the AVX2 suite when it was built and this CPU runs it)
//      must reproduce the header-inlined reference kernels
//      bit-for-bit: dense dot + bound, the gather twins over sparse lane
//      sets, tail widths that don't fill a vector register, widths past the
//      64-lane fallback seam, the u0-seeded bound path, skip sets, and both
//      Lemma-3 regimes (set-monotone and greedy-stop).
//
// The batched search's bit-identity contract with Search() rides on these
// invariants; search_batch_property_test checks the same thing end-to-end.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/random.h"
#include "topkpkg/common/simd.h"
#include "topkpkg/model/aggregate_kernel.h"
#include "topkpkg/model/item_table.h"

namespace topkpkg {

// The baseline-ISA suite (aggregate_kernel_lanes_base.cc). Dispatch never
// picks it on an AVX2 host, but pre-AVX2 x86-64 CPUs and every other target
// run it, so the test reaches it by name.
namespace model::lanes_base {
extern const AggBatchKernels kKernels;
}  // namespace model::lanes_base

namespace {

using model::AggBatchKernels;
using model::AggBatchKernelsFor;
using model::AggBatchPlan;
using model::AggregateOp;
using model::kAggStripeWidth;

std::uint64_t BitsOf(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Bitwise double equality: distinguishes -0.0 from +0.0 and compares NaN
// patterns exactly (EXPECT_EQ on doubles does neither).
::testing::AssertionResult BitEq(double a, double b) {
  if (BitsOf(a) == BitsOf(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << BitsOf(a) << ") != " << std::dec << b
         << " (0x" << std::hex << BitsOf(b) << ")";
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The special-value pool every lane-op sweep draws from: both zeros, both
// infinities, NaN, a denormal, and ordinary magnitudes on both sides of 1.
const double kSpecials[] = {0.0,   -0.0, 1.0,  -1.0, 0.5,
                            -2.25, kInf, -kInf, kNaN, 5e-324};
constexpr std::size_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);

// ---- Level 1: lane ops vs the scalar reference ----------------------------

// Exercises one backend's ops against simd::scalar on every pair drawn from
// the specials pool, at every lane position (so a NaN in lane 1 of a 4-wide
// register is checked independently of lane 0).
template <typename V>
void CheckLaneOpsAgainstScalar() {
  using S = simd::scalar::F64x;
  constexpr std::size_t W = V::kWidth;
  double a_mem[W], b_mem[W], out[W], want[W];

  for (std::size_t ia = 0; ia < kNumSpecials; ++ia) {
    for (std::size_t ib = 0; ib < kNumSpecials; ++ib) {
      // Rotate the pair through the lanes; remaining lanes take staggered
      // pool entries so no two lanes of one register are forced equal.
      for (std::size_t rot = 0; rot < W; ++rot) {
        for (std::size_t t = 0; t < W; ++t) {
          a_mem[t] = kSpecials[(ia + t + rot) % kNumSpecials];
          b_mem[t] = kSpecials[(ib + 2 * t + rot) % kNumSpecials];
        }
        a_mem[rot] = kSpecials[ia];
        b_mem[rot] = kSpecials[ib];
        const V a = V::Load(a_mem), b = V::Load(b_mem);
        const std::string label = std::string(V::Name()) + " a=" +
                                  std::to_string(a_mem[rot]) + " b=" +
                                  std::to_string(b_mem[rot]) + " lane=" +
                                  std::to_string(rot);

        // Max: (a < b) ? b : a — first operand wins on NaN and on equality
        // (including -0.0 vs +0.0).
        V::Max(a, b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          want[t] = S::Max({a_mem[t]}, {b_mem[t]}).v;
          EXPECT_TRUE(BitEq(out[t], want[t])) << label << " Max t=" << t;
        }

        // CmpLE: all-ones where a <= b, zero otherwise; NaN compares false.
        V::CmpLE(a, b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          want[t] = S::CmpLE({a_mem[t]}, {b_mem[t]}).v;
          EXPECT_TRUE(BitEq(out[t], want[t])) << label << " CmpLE t=" << t;
        }

        // Mul/add: plain IEEE ops, no contraction.
        (a * b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          EXPECT_TRUE(BitEq(out[t], a_mem[t] * b_mem[t])) << label << " mul";
        }
        (a + b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          EXPECT_TRUE(BitEq(out[t], a_mem[t] + b_mem[t])) << label << " add";
        }

        // Bitwise ops on the lane patterns.
        V::Or(a, b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          want[t] = S::Or({a_mem[t]}, {b_mem[t]}).v;
          EXPECT_TRUE(BitEq(out[t], want[t])) << label << " Or t=" << t;
        }
        V::AndNot(a, b).Store(out);
        for (std::size_t t = 0; t < W; ++t) {
          want[t] = S::AndNot({a_mem[t]}, {b_mem[t]}).v;
          EXPECT_TRUE(BitEq(out[t], want[t])) << label << " AndNot t=" << t;
        }

        // MoveMask: one sign bit per lane.
        int mm = V::MoveMask(a);
        for (std::size_t t = 0; t < W; ++t) {
          EXPECT_EQ((mm >> t) & 1, static_cast<int>(BitsOf(a_mem[t]) >> 63))
              << label << " MoveMask t=" << t;
        }
      }
    }
  }

  // Blend with the masks the kernels actually use: all-ones / all-zero per
  // lane, NaN payloads included on both sides.
  {
    const V ones = V::AllOnes();
    double ones_mem[W];
    ones.Store(ones_mem);
    for (std::size_t t = 0; t < W; ++t) {
      EXPECT_EQ(BitsOf(ones_mem[t]), ~std::uint64_t{0})
          << V::Name() << " AllOnes t=" << t;
    }
    double m_mem[W], x_mem[W], y_mem[W];
    for (std::size_t t = 0; t < W; ++t) {
      m_mem[t] = (t % 2 == 0) ? ones_mem[0] : 0.0;
      x_mem[t] = kSpecials[t % kNumSpecials];
      y_mem[t] = kSpecials[(t + 4) % kNumSpecials];
    }
    V::Blend(V::Load(m_mem), V::Load(x_mem), V::Load(y_mem)).Store(out);
    for (std::size_t t = 0; t < W; ++t) {
      EXPECT_TRUE(BitEq(out[t], (t % 2 == 0) ? x_mem[t] : y_mem[t]))
          << V::Name() << " Blend t=" << t;
    }
  }

  // GatherIdx: lane t = p[idx[t]], bit-identical to scalar indexing even
  // when the gathered values are NaN / -0.0 and indices repeat.
  {
    double table[16];
    for (std::size_t i = 0; i < 16; ++i) {
      table[i] = kSpecials[i % kNumSpecials];
    }
    const std::uint32_t idx_sets[][4] = {
        {0, 1, 2, 3}, {15, 0, 15, 0}, {8, 8, 8, 8}, {3, 14, 9, 6}};
    for (const auto& idx : idx_sets) {
      V::GatherIdx(table, idx).Store(out);
      for (std::size_t t = 0; t < W; ++t) {
        EXPECT_TRUE(BitEq(out[t], table[idx[t]]))
            << V::Name() << " GatherIdx idx=" << idx[t] << " t=" << t;
      }
    }
  }
}

TEST(SimdLaneOpsTest, ScalarBackendIsSelfConsistent) {
  CheckLaneOpsAgainstScalar<simd::scalar::F64x>();
}

TEST(SimdLaneOpsTest, BestBaselineBackendMatchesScalar) {
  // On x86-64 this is sse2, elsewhere scalar again. The
  // AVX2 backend is exercised through the kernel-suite tests below (this TU
  // is not compiled with -mavx2, so it cannot instantiate avx2::F64x).
  CheckLaneOpsAgainstScalar<simd::best::F64x>();
}

// ---- Level 2: kernel suites vs the header reference ------------------------

// A randomized batched plan plus the scratch the kernels need. Stripe ops
// cycle through sum/avg/min/max; a slice of stripes is left count-0 in the
// block (min/max there evaluate to 0 through AggRaw's count-0 rule) and tau
// gets occasional nulls.
struct PlanFixture {
  std::vector<AggregateOp> ops;
  std::vector<double> scales;
  std::vector<double> wcol;   // [a * lanes + j]
  std::vector<double> blk;    // nf stripes
  std::vector<double> tau;
  std::vector<std::uint8_t> skip;
  AggBatchPlan plan;

  PlanFixture(std::size_t nf, std::size_t lanes, Rng& rng) {
    ops.resize(nf);
    scales.resize(nf);
    wcol.resize(nf * lanes);
    blk.resize(nf * kAggStripeWidth);
    tau.resize(nf);
    skip.assign(nf, 0);
    model::AggInitStripes(blk.data(), nf);
    const AggregateOp cycle[] = {AggregateOp::kSum, AggregateOp::kAvg,
                                 AggregateOp::kMin, AggregateOp::kMax};
    for (std::size_t a = 0; a < nf; ++a) {
      ops[a] = cycle[a % 4];
      scales[a] = 0.5 + rng.Uniform();
      tau[a] = rng.Bernoulli(0.2) ? model::kNullValue
                                  : rng.Uniform() * 2.0 - 0.5;
      skip[a] = rng.Bernoulli(0.25) ? 1 : 0;
      // Fold 0..3 values; 0 leaves the stripe count-0.
      const int folds = rng.UniformInt(4);
      for (int i = 0; i < folds; ++i) {
        model::AggFoldValue(blk.data() + kAggStripeWidth * a,
                            rng.Uniform() * 2.0 - 1.0);
      }
      for (std::size_t j = 0; j < lanes; ++j) {
        wcol[a * lanes + j] = rng.Uniform() * 2.0 - 1.0;
      }
    }
    plan.ops = ops.data();
    plan.scales = scales.data();
    plan.wcol = wcol.data();
    plan.num_features = nf;
    plan.lanes = lanes;
  }
};

void ExpectLanesBitEq(const std::vector<double>& got,
                      const std::vector<double>& want, std::size_t lanes,
                      const std::string& label) {
  for (std::size_t j = 0; j < lanes; ++j) {
    EXPECT_TRUE(BitEq(got[j], want[j])) << label << " lane=" << j;
  }
}

// Sweeps one suite against the header reference across widths that cover
// vector tails (1..9), one full mask word (64), and the >64 fallback seam
// (65, 80) — for the dense kernels, both Lemma-3 regimes and both skip/u0
// configurations.
void CheckSuiteAgainstReference(const AggBatchKernels& kern,
                                const std::string& suite) {
  Rng rng(20260808);
  const std::size_t widths[] = {1, 2, 3, 4, 5, 7, 8, 9, 64, 65, 80};
  for (std::size_t lanes : widths) {
    for (std::size_t nf : {1u, 3u, 6u, 11u}) {
      PlanFixture fx(nf, lanes, rng);
      const std::string label =
          suite + " lanes=" + std::to_string(lanes) + " nf=" +
          std::to_string(nf);
      std::vector<double> raw_norm(nf), ref_norm(nf);
      model::AggRawNormalized(fx.plan, fx.blk.data(), 2, raw_norm.data());

      // dot_batch, with and without a skip set.
      const std::uint8_t* skip_sets[] = {nullptr, fx.skip.data()};
      for (const std::uint8_t* skip : skip_sets) {
        std::vector<double> got(lanes, kNaN), want(lanes, kNaN);
        kern.dot_batch(fx.plan, raw_norm.data(), skip, got.data());
        model::AggDotBatch(fx.plan, raw_norm.data(), skip, want.data());
        ExpectLanesBitEq(got, want, lanes, label + " dot_batch");
      }

      // dot_batch_gather over a strided sparse lane set; untouched entries
      // must keep their sentinel. Above 64 lanes the set goes dense so the
      // gather kernels' 64-lane chunking seam is crossed.
      {
        const std::size_t dstride = lanes > 64 ? 1 : 3;
        std::vector<std::uint32_t> lidx;
        for (std::size_t j = 0; j < lanes; j += dstride) {
          lidx.push_back(static_cast<std::uint32_t>(j));
        }
        std::vector<double> got(lanes, kNaN), want(lanes, kNaN);
        kern.dot_batch_gather(fx.plan, raw_norm.data(), fx.skip.data(),
                              lidx.data(), lidx.size(), got.data());
        model::AggDotBatchGather(fx.plan, raw_norm.data(), fx.skip.data(),
                                 lidx.data(), lidx.size(), want.data());
        ExpectLanesBitEq(got, want, lanes, label + " dot_gather");
      }

      // tau_padded_bound_batch: {greedy-stop, set-monotone} × {ref-computed
      // u0, caller-seeded u0} × {skip, no skip} (u0 requires null skip).
      std::vector<double> pad(nf * kAggStripeWidth);
      std::vector<double> u0(lanes);
      model::AggRawNormalized(fx.plan, fx.blk.data(), 2, ref_norm.data());
      model::AggDotBatch(fx.plan, ref_norm.data(), nullptr, u0.data());
      for (bool set_monotone : {false, true}) {
        for (int cfg = 0; cfg < 3; ++cfg) {  // 0: plain, 1: skip, 2: u0.
          const std::uint8_t* skip = cfg == 1 ? fx.skip.data() : nullptr;
          const double* seed = cfg == 2 ? u0.data() : nullptr;
          std::vector<double> got_b(lanes, kNaN), want_b(lanes, kNaN);
          std::vector<double> got_u(lanes), want_u(lanes);
          std::vector<std::uint8_t> got_s(lanes), want_s(lanes);
          kern.tau_padded_bound_batch(
              fx.plan, fx.blk.data(), 2, fx.tau.data(), 3, set_monotone, skip,
              seed, pad.data(), raw_norm.data(), got_u.data(), got_s.data(),
              got_b.data());
          model::AggTauPaddedBoundBatch(
              fx.plan, fx.blk.data(), 2, fx.tau.data(), 3, set_monotone, skip,
              seed, pad.data(), ref_norm.data(), want_u.data(), want_s.data(),
              want_b.data());
          ExpectLanesBitEq(got_b, want_b, lanes,
                           label + " tau_bound mono=" +
                               std::to_string(set_monotone) + " cfg=" +
                               std::to_string(cfg));
        }
      }

      // tau_padded_bound_batch_gather: sparse lane set (every other lane),
      // same config sweep. The reference reorders its lidx in place and the
      // suites may not, so each side gets its own copy and only the bound
      // values at the originally-listed lanes are compared.
      {
        const std::size_t tstride = lanes > 64 ? 1 : 2;  // nl>64 fallback.
        std::vector<std::uint32_t> base_lidx;
        for (std::size_t j = 0; j < lanes; j += tstride) {
          base_lidx.push_back(static_cast<std::uint32_t>(j));
        }
        const std::size_t nl = base_lidx.size();
        for (bool set_monotone : {false, true}) {
          for (int cfg = 0; cfg < 3; ++cfg) {
            const std::uint8_t* skip = cfg == 1 ? fx.skip.data() : nullptr;
            const double* seed = cfg == 2 ? u0.data() : nullptr;
            std::vector<std::uint32_t> lidx_a = base_lidx, lidx_b = base_lidx;
            std::vector<double> got_b(lanes, kNaN), want_b(lanes, kNaN);
            std::vector<double> got_u(lanes), want_u(lanes);
            kern.tau_padded_bound_batch_gather(
                fx.plan, fx.blk.data(), 2, fx.tau.data(), 3, set_monotone,
                skip, seed, lidx_a.data(), nl, pad.data(), raw_norm.data(),
                got_u.data(), got_b.data());
            model::AggTauPaddedBoundBatchGather(
                fx.plan, fx.blk.data(), 2, fx.tau.data(), 3, set_monotone,
                skip, seed, lidx_b.data(), nl, pad.data(), ref_norm.data(),
                want_u.data(), want_b.data());
            for (std::uint32_t j : base_lidx) {
              EXPECT_TRUE(BitEq(got_b[j], want_b[j]))
                  << label << " tau_gather mono=" << set_monotone
                  << " cfg=" << cfg << " lane=" << j;
            }
            // Unlisted lanes stay stale on both sides.
            for (std::size_t j = 1; j < lanes && tstride == 2; j += 2) {
              EXPECT_TRUE(std::isnan(got_b[j]))
                  << label << " tau_gather wrote unlisted lane " << j;
            }
          }
        }
      }

      // empty_tau_bound_batch, both regimes.
      {
        std::vector<double> peek_norm(nf), ref_peek(nf);
        for (bool set_monotone : {false, true}) {
          std::vector<double> got_b(lanes, kNaN), want_b(lanes, kNaN);
          std::vector<double> got_u(lanes), want_u(lanes);
          std::vector<double> got_p(lanes), want_p(lanes);
          std::vector<std::uint8_t> got_s(lanes), want_s(lanes);
          kern.empty_tau_bound_batch(fx.plan, fx.tau.data(), 4, set_monotone,
                                     fx.skip.data(), pad.data(),
                                     raw_norm.data(), peek_norm.data(),
                                     got_u.data(), got_p.data(), got_s.data(),
                                     got_b.data());
          model::AggEmptyTauBoundBatch(
              fx.plan, fx.tau.data(), 4, set_monotone, fx.skip.data(),
              pad.data(), ref_norm.data(), ref_peek.data(), want_u.data(),
              want_p.data(), want_s.data(), want_b.data());
          ExpectLanesBitEq(got_b, want_b, lanes,
                           label + " empty_bound mono=" +
                               std::to_string(set_monotone));
        }
      }
    }
  }
}

// Every suite compiled into the library: the baseline one, plus the
// dispatched one when that differs (the AVX2 suite, built and supported).
std::vector<const AggBatchKernels*> CompiledSuites() {
  std::vector<const AggBatchKernels*> suites = {&model::lanes_base::kKernels};
  const AggBatchKernels& dispatched = AggBatchKernelsFor();
  if (&dispatched != suites[0]) suites.push_back(&dispatched);
  return suites;
}

TEST(AggBatchSuiteTest, BaselineSuiteRunsTheBaselineBackend) {
  EXPECT_STREQ(model::lanes_base::kKernels.backend, simd::best::F64x::Name());
}

TEST(AggBatchSuiteTest, EveryCompiledSuiteMatchesReferenceBitForBit) {
  for (const AggBatchKernels* kern : CompiledSuites()) {
    SCOPED_TRACE(std::string("backend: ") + kern->backend);
    CheckSuiteAgainstReference(*kern, kern->backend);
  }
}

TEST(AggBatchSuiteTest, EverySuiteEntryIsPopulated) {
  for (const AggBatchKernels* suite : CompiledSuites()) {
    const AggBatchKernels& kern = *suite;
    EXPECT_NE(kern.dot_batch, nullptr);
    EXPECT_NE(kern.tau_padded_bound_batch, nullptr);
    EXPECT_NE(kern.empty_tau_bound_batch, nullptr);
    EXPECT_NE(kern.dot_batch_gather, nullptr);
    EXPECT_NE(kern.tau_padded_bound_batch_gather, nullptr);
    EXPECT_NE(std::string(kern.backend), "");
  }
}

}  // namespace
}  // namespace topkpkg
