// Every-ISA equivalence matrix for the simd kernel layer (simd/kernels.h):
// each runnable dispatch table is driven against the scalar reference on
// randomized shapes with odd sizes and tail lanes. Scatter-shaped kernels
// (dense_scatter, conv_taps, threshold_fire, burst_fire, axpy,
// mask_compact) must match BIT-EXACTLY -- they preserve per-slot addition
// order and use separate mul+add -- while dense_matvec reorders its
// dot-product reduction and is held to the documented 1e-5 tolerance. Which tables are runnable is
// governed by TSNN_CPUFLAGS, so the CI scalar-forced leg shrinks this
// matrix to the reference alone and the native leg covers every variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "simd/kernels.h"
#include "snn/topology.h"

namespace tsnn {
namespace {

using simd::ConvTap;
using simd::KernelDispatch;

// Odd sizes on purpose: every vector kernel has an 8-lane body and a scalar
// tail, and a 4-spike block with a remainder.
constexpr std::size_t kFanOuts[] = {1, 7, 8, 9, 17, 33, 64, 129};
constexpr std::size_t kCounts[] = {0, 1, 3, 4, 5, 13};

std::vector<float> random_floats(Rng& rng, std::size_t n, float lo, float hi) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
  return v;
}

// ---------------------------------------------------------------------------

class SimdEquivalence : public ::testing::TestWithParam<const KernelDispatch*> {
 protected:
  const KernelDispatch& table() const { return *GetParam(); }
  static bool tolerance_isa(const KernelDispatch& t) {
    return std::string(t.isa) != "scalar";
  }
};

std::string table_name(
    const ::testing::TestParamInfo<const KernelDispatch*>& info) {
  std::string name = info.param->isa;
  for (char& c : name) {
    if (c == '+') {
      c = '_';
    }
  }
  return name;
}

TEST_P(SimdEquivalence, DenseScatterBitExact) {
  Rng rng(0x5ca77e2u);
  for (const std::size_t out : kFanOuts) {
    for (const std::size_t count : kCounts) {
      const std::size_t in = 40;
      const auto wt = random_floats(rng, in * out, -1.0f, 1.0f);
      const auto mag = random_floats(rng, count, 0.1f, 2.0f);
      std::vector<std::uint32_t> pre(count);
      for (auto& p : pre) {
        p = static_cast<std::uint32_t>(rng.uniform_index(in));
      }
      auto u_ref = random_floats(rng, out, -0.5f, 0.5f);
      auto u_got = u_ref;

      simd::DenseScatterCtx ctx;
      ctx.wt = wt.data();
      ctx.pre = pre.data();
      ctx.mag = mag.data();
      ctx.count = count;
      ctx.out = out;

      ctx.u = u_ref.data();
      simd::scalar_kernels().dense_scatter(ctx);
      ctx.u = u_got.data();
      table().dense_scatter(ctx);

      for (std::size_t j = 0; j < out; ++j) {
        ASSERT_EQ(u_ref[j], u_got[j])
            << table().isa << " out=" << out << " count=" << count
            << " j=" << j;
      }
    }
  }
}

TEST_P(SimdEquivalence, DenseMatvecWithinTolerance) {
  Rng rng(0xdeadf00du);
  for (const std::size_t out : kFanOuts) {
    for (const std::size_t in : {1ul, 9ul, 100ul, 257ul}) {
      const auto w = random_floats(rng, out * in, -1.0f, 1.0f);
      const auto x = random_floats(rng, in, -1.0f, 1.0f);
      auto y_ref = random_floats(rng, out, -0.5f, 0.5f);
      auto y_got = y_ref;

      simd::DenseMatvecCtx ctx;
      ctx.w = w.data();
      ctx.x = x.data();
      ctx.in = in;
      ctx.out = out;

      ctx.y = y_ref.data();
      simd::scalar_kernels().dense_matvec(ctx);
      ctx.y = y_got.data();
      table().dense_matvec(ctx);

      for (std::size_t j = 0; j < out; ++j) {
        const float tol =
            tolerance_isa(table())
                ? 1e-5f + 1e-5f * std::fabs(y_ref[j])
                : 0.0f;  // scalar vs scalar must be identical
        ASSERT_NEAR(y_ref[j], y_got[j], tol)
            << table().isa << " out=" << out << " in=" << in << " j=" << j;
      }
    }
  }
}

TEST_P(SimdEquivalence, ConvTapsBitExact) {
  Rng rng(0xc0ffee11u);
  for (const std::size_t oc : {1ul, 7ul, 8ul, 13ul, 32ul, 65ul}) {
    const std::size_t in_hw = 25;   // 5x5 input
    const std::size_t out_hw = 25;  // same-size output
    const std::size_t k2 = 9;       // 3x3 kernel
    const std::size_t ic = 3;

    // Random-but-valid CSR: each input position gets 0..k2 taps.
    std::vector<std::uint32_t> tap_offset(in_hw + 1, 0);
    std::vector<ConvTap> taps;
    for (std::size_t sp = 0; sp < in_hw; ++sp) {
      const std::size_t ntaps = rng.uniform_index(k2 + 1);
      for (std::size_t t = 0; t < ntaps; ++t) {
        taps.push_back(
            ConvTap{static_cast<std::uint32_t>(rng.uniform_index(out_hw)),
                    static_cast<std::uint32_t>(rng.uniform_index(k2))});
      }
      tap_offset[sp + 1] = static_cast<std::uint32_t>(taps.size());
    }

    const auto wt = random_floats(rng, ic * k2 * oc, -1.0f, 1.0f);
    const std::size_t count = 17;
    const auto mag = random_floats(rng, count, 0.1f, 2.0f);
    std::vector<std::uint32_t> pre(count);
    for (auto& p : pre) {
      p = static_cast<std::uint32_t>(rng.uniform_index(ic * in_hw));
    }
    auto u_ref = random_floats(rng, out_hw * oc, -0.5f, 0.5f);
    auto u_got = u_ref;

    simd::ConvTapCtx ctx;
    ctx.wt = wt.data();
    ctx.tap_offset = tap_offset.data();
    ctx.taps = taps.data();
    ctx.pre = pre.data();
    ctx.mag = mag.data();
    ctx.count = count;
    ctx.in_hw = in_hw;
    ctx.k2 = k2;
    ctx.oc = oc;

    ctx.u = u_ref.data();
    simd::scalar_kernels().conv_taps(ctx);
    ctx.u = u_got.data();
    table().conv_taps(ctx);

    for (std::size_t j = 0; j < out_hw * oc; ++j) {
      ASSERT_EQ(u_ref[j], u_got[j]) << table().isa << " oc=" << oc
                                    << " j=" << j;
    }
  }
}

TEST_P(SimdEquivalence, ThresholdFireBitExact) {
  Rng rng(0x7153a11u);
  for (const std::size_t n : kFanOuts) {
    for (const bool subtract : {false, true}) {
      for (const bool mapped : {false, true}) {
        // Potentials straddling the threshold, including exact hits.
        auto u0 = random_floats(rng, n, 0.0f, 2.0f);
        if (n > 2) {
          u0[n / 2] = 1.0f;  // the >= edge must fire
        }
        // A permuted indirection map exercises the gather path.
        std::vector<std::uint32_t> umap(n);
        for (std::size_t j = 0; j < n; ++j) {
          umap[j] = static_cast<std::uint32_t>(n - 1 - j);
        }

        auto u_ref = u0;
        auto u_got = u0;
        std::vector<std::uint32_t> fired_ref(n, 0xffffffffu);
        std::vector<std::uint32_t> fired_got(n, 0xffffffffu);

        simd::ThresholdCtx ctx;
        ctx.umap = mapped ? umap.data() : nullptr;
        ctx.n = n;
        ctx.threshold = 1.0f;
        ctx.subtract = subtract;

        ctx.u = u_ref.data();
        ctx.fired = fired_ref.data();
        const std::size_t nref = simd::scalar_kernels().threshold_fire(ctx);
        ctx.u = u_got.data();
        ctx.fired = fired_got.data();
        const std::size_t ngot = table().threshold_fire(ctx);

        ASSERT_EQ(nref, ngot) << table().isa << " n=" << n
                              << " subtract=" << subtract
                              << " mapped=" << mapped;
        for (std::size_t j = 0; j < nref; ++j) {
          ASSERT_EQ(fired_ref[j], fired_got[j]) << table().isa << " n=" << n;
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(u_ref[j], u_got[j]) << table().isa << " n=" << n
                                        << " subtract=" << subtract;
        }
      }
    }
  }
}

TEST_P(SimdEquivalence, BurstFireBitExact) {
  Rng rng(0xb0257u);
  constexpr std::uint32_t kCap = 4;
  std::vector<float> quanta(kCap + 1);
  for (std::uint32_t e = 0; e <= kCap; ++e) {
    quanta[e] = 0.4f * static_cast<float>(1u << e);
  }
  for (const std::size_t n : kFanOuts) {
    for (const bool mapped : {false, true}) {
      // Counters below, at and above the cap -- including one past 2^31,
      // which a signed clamp would turn into a negative table index.
      std::vector<std::uint32_t> k0(n);
      for (auto& k : k0) {
        k = static_cast<std::uint32_t>(rng.uniform_index(kCap + 3));
      }
      k0[0] = 0;
      k0[n / 2] = kCap;
      k0[n - 1] = 0x80000001u;
      std::vector<std::uint32_t> umap(n);
      for (std::size_t j = 0; j < n; ++j) {
        umap[j] = static_cast<std::uint32_t>(j);
      }
      for (std::size_t j = n; j > 1; --j) {  // a random permutation
        std::swap(umap[j - 1], umap[rng.uniform_index(j)]);
      }
      const auto slot = [&](std::size_t j) { return mapped ? umap[j] : j; };
      // Potentials straddling each neuron's quantum, with exact hits, and a
      // negative zero that an unfired lane must keep bit for bit.
      auto u0 = random_floats(rng, n, -quanta[kCap], 2.0f * quanta[kCap]);
      u0[slot(n / 2)] = quanta[kCap];
      u0[slot(n / 3)] = quanta[std::min(k0[n / 3], kCap)];
      u0[slot(n / 4)] = -0.0f;

      auto u_ref = u0;
      auto u_got = u0;
      auto k_ref = k0;
      auto k_got = k0;
      std::vector<std::uint32_t> fired_ref(n, 0xffffffffu);
      std::vector<std::uint32_t> fired_got(n, 0xffffffffu);

      simd::BurstFireCtx ctx;
      ctx.umap = mapped ? umap.data() : nullptr;
      ctx.n = n;
      ctx.quanta = quanta.data();
      ctx.cap = kCap;
      // Three scans in a row: counters escalate, reset and escalate again.
      for (int step = 0; step < 3; ++step) {
        ctx.u = u_ref.data();
        ctx.k = k_ref.data();
        ctx.fired = fired_ref.data();
        const std::size_t nref = simd::scalar_kernels().burst_fire(ctx);
        ctx.u = u_got.data();
        ctx.k = k_got.data();
        ctx.fired = fired_got.data();
        const std::size_t ngot = table().burst_fire(ctx);

        ASSERT_EQ(nref, ngot) << table().isa << " n=" << n
                              << " mapped=" << mapped << " step=" << step;
        for (std::size_t f = 0; f < nref; ++f) {
          ASSERT_EQ(fired_ref[f], fired_got[f]) << table().isa << " n=" << n;
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(u_ref[j]),
                    std::bit_cast<std::uint32_t>(u_got[j]))
              << table().isa << " n=" << n << " mapped=" << mapped
              << " j=" << j;
          ASSERT_EQ(k_ref[j], k_got[j]) << table().isa << " n=" << n
                                        << " mapped=" << mapped << " j=" << j;
        }
        for (std::size_t j = 0; j < n; ++j) {  // recharge for the next scan
          u_ref[j] += 0.5f;
          u_got[j] += 0.5f;
        }
      }
    }
  }
}

// The scan's contract worked by hand, so it binds the scalar leaf too: an
// exact hit fires (>=), counters at and above the cap read the top rung, an
// unfired counter resets, and fired indices are canonical and ascending
// whichever slots the umap sends them to.
TEST_P(SimdEquivalence, BurstFireWorkedExample) {
  const std::vector<float> quanta = {0.5f, 1.0f, 2.0f};  // cap 2
  const std::vector<float> u_in = {0.5f, 0.25f, 3.0f, 1.5f, 1.0f};
  const std::vector<std::uint32_t> k_in = {0, 0, 2, 7, 1};
  const std::vector<float> u_want = {0.0f, 0.25f, 1.0f, 1.5f, 0.0f};
  const std::vector<std::uint32_t> k_want = {1, 0, 3, 0, 2};
  const std::vector<std::uint32_t> fired_want = {0, 2, 4};
  const std::vector<std::uint32_t> umap = {3, 0, 4, 1, 2};
  for (const bool mapped : {false, true}) {
    std::vector<float> u(u_in.size());
    for (std::size_t j = 0; j < u.size(); ++j) {
      u[mapped ? umap[j] : j] = u_in[j];
    }
    std::vector<std::uint32_t> k = k_in;
    std::vector<std::uint32_t> fired(u.size());
    simd::BurstFireCtx ctx;
    ctx.u = u.data();
    ctx.umap = mapped ? umap.data() : nullptr;
    ctx.k = k.data();
    ctx.n = u.size();
    ctx.quanta = quanta.data();
    ctx.cap = 2;
    ctx.fired = fired.data();
    fired.resize(table().burst_fire(ctx));
    EXPECT_EQ(fired, fired_want) << table().isa << " mapped=" << mapped;
    EXPECT_EQ(k, k_want) << table().isa << " mapped=" << mapped;
    for (std::size_t j = 0; j < u.size(); ++j) {
      EXPECT_EQ(u[mapped ? umap[j] : j], u_want[j])
          << table().isa << " mapped=" << mapped << " j=" << j;
    }
  }
}

TEST_P(SimdEquivalence, AxpyBitExact) {
  Rng rng(0xa4b1u);
  for (const std::size_t n : kFanOuts) {
    const auto x = random_floats(rng, n, -1.0f, 1.0f);
    auto y_ref = random_floats(rng, n, -1.0f, 1.0f);
    auto y_got = y_ref;
    simd::scalar_kernels().axpy(y_ref.data(), x.data(), 0.37f, n);
    table().axpy(y_got.data(), x.data(), 0.37f, n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(y_ref[j], y_got[j]) << table().isa << " n=" << n;
    }
  }
}

TEST_P(SimdEquivalence, MaskCompactExactAndInPlace) {
  Rng rng(0x3a5cu);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 31ul, 64ul, 200ul}) {
    std::vector<std::uint32_t> src(n);
    std::vector<std::uint8_t> keep(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 30));
      keep[i] = rng.bernoulli(0.6) ? 1 : 0;
    }

    std::vector<std::uint32_t> ref(n + 8, 0);
    const std::size_t kref = simd::scalar_kernels().mask_compact(
        src.data(), keep.data(), n, ref.data());

    // Out-of-place.
    std::vector<std::uint32_t> got(n + 8, 0);
    const std::size_t kgot =
        table().mask_compact(src.data(), keep.data(), n, got.data());
    ASSERT_EQ(kref, kgot) << table().isa << " n=" << n;
    for (std::size_t i = 0; i < kref; ++i) {
      ASSERT_EQ(ref[i], got[i]) << table().isa << " n=" << n;
    }

    // In-place (dst == src), the EventBuffer compaction shape.
    std::vector<std::uint32_t> inplace = src;
    const std::size_t kin = table().mask_compact(
        inplace.data(), keep.data(), n, inplace.data());
    ASSERT_EQ(kref, kin) << table().isa << " n=" << n;
    for (std::size_t i = 0; i < kref; ++i) {
      ASSERT_EQ(ref[i], inplace[i]) << table().isa << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRunnableTables, SimdEquivalence,
                         ::testing::ValuesIn(simd::runnable_tables()),
                         table_name);

// --------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatch, ActiveTableMatchesAllowedFeatures) {
  const auto& active = simd::kernels();
  // The active table never requires a feature the mask forbids.
  EXPECT_EQ(active.features & ~cpu::allowed_features(), 0u);
  EXPECT_EQ(simd::active_isa(), std::string(active.isa));
}

TEST(SimdDispatch, ScalarTableAlwaysRegistered) {
  const simd::KernelDispatch* scalar = simd::find_table("scalar");
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->features, 0u);
  EXPECT_EQ(scalar, &simd::scalar_kernels());
  EXPECT_EQ(simd::find_table("not-an-isa"), nullptr);
}

TEST(SimdDispatch, RunnableTablesEndWithScalar) {
  const auto tables = simd::runnable_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.back()->isa, "scalar");
  for (const auto* t : tables) {
    EXPECT_EQ(t->features & ~cpu::allowed_features(), 0u) << t->isa;
  }
}

TEST(SimdDispatch, ScopedOverrideSwapsAndRestores) {
  const std::string before = simd::active_isa();
  {
    simd::ScopedKernelOverride forced(simd::scalar_kernels());
    EXPECT_EQ(simd::active_isa(), "scalar");
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdDispatch, PolicyCrossoverMath) {
  // The scatter -> dense-drive crossover: 3/4 of in_size, at least 1.
  const auto threshold = [](std::size_t in) {
    return snn::DenseTopology(Tensor{Shape{1, in}}).dense_drive_threshold();
  };
  EXPECT_EQ(threshold(512), 384u);
  EXPECT_EQ(threshold(4), 3u);
  EXPECT_EQ(threshold(1), 1u);  // clamped to >= 1
}

// --------------------------------------------------------------------------
// CPU flag parsing (pure function, independent of the host).

TEST(CpuFlags, ParseCpuflags) {
  EXPECT_EQ(cpu::parse_cpuflags(""), ~0u);
  EXPECT_EQ(cpu::parse_cpuflags("native"), ~0u);
  EXPECT_EQ(cpu::parse_cpuflags("scalar"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("none"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("avx2"), cpu::kAvx2);
  // "fma" is no token (no kernel uses it): it warns and adds no bits.
  EXPECT_EQ(cpu::parse_cpuflags("avx2+fma"), cpu::kAvx2);
  EXPECT_EQ(cpu::parse_cpuflags("  AVX2 "), cpu::kAvx2);
  EXPECT_EQ(cpu::parse_cpuflags("bogus"), 0u);  // warns, contributes no bits
}

// --------------------------------------------------------------------------
// Aligned allocation contract.

TEST(AlignedAlloc, VectorDataIsCacheLineAligned) {
  for (const std::size_t n : {1ul, 3ul, 100ul, 4097ul}) {
    aligned_vector<float> vf(n);
    EXPECT_TRUE(is_simd_aligned(vf.data())) << n;
    aligned_vector<std::uint32_t> vu(n);
    EXPECT_TRUE(is_simd_aligned(vu.data())) << n;
  }
}

}  // namespace
}  // namespace tsnn
