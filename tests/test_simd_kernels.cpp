// Every-ISA equivalence matrix for the simd kernel layer (simd/kernels.h):
// each runnable dispatch table is driven against the scalar reference on
// randomized shapes with odd sizes and tail lanes, on every accumulator
// layout shape the fire scans distinguish, and on the zoo's conv shapes.
// Every kernel (dense_scatter, conv_taps, threshold_fire, burst_fire, axpy,
// mask_compact, gauss_shifts) must match BIT-EXACTLY -- they preserve
// per-slot addition order and use separate mul+add, and gauss_shifts
// recomputes with libm whatever its approximation cannot round safely.
// Which tables are runnable is governed by TSNN_CPUFLAGS, so the CI
// scalar-forced leg shrinks this matrix to the
// reference alone and the native leg covers every variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
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

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

// ---------------------------------------------------------------------------

class SimdEquivalence : public ::testing::TestWithParam<const KernelDispatch*> {
 protected:
  const KernelDispatch& table() const { return *GetParam(); }
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

// A random CSR table leaves the 3x3 geometry fields unset, so every table
// must serve it through its general path.
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

// One magnitude for the whole batch (stride 0) on this table against one
// per spike (stride 1) on the scalar table, slot for slot with ==: conv at
// every zoo channel count and input size (the fixed-geometry leaves), with
// a batch below and one at the canonical threshold, then dense and pool.
// The magnitude array holds other values past its first, so a leaf that
// reads mag[i] at stride 0 shows.
void expect_uniform_span_matches_batch(const KernelDispatch& table,
                                       const snn::SynapseTopology& syn,
                                       std::size_t count, Rng& rng) {
  std::vector<std::uint32_t> ids(count);
  for (auto& id : ids) {
    id = static_cast<std::uint32_t>(rng.uniform_index(syn.in_size()));
  }
  const auto mags = random_floats(rng, count + 1, 0.05f, 2.0f);
  snn::SpikeBatch batch;
  for (const std::uint32_t id : ids) {
    batch.add(id, mags[0]);
  }
  const auto u0 = random_floats(rng, syn.out_size(), -0.5f, 0.5f);
  auto u_ref = u0;
  auto u_got = u0;
  {
    simd::ScopedKernelOverride scalar(simd::scalar_kernels());
    syn.propagate_accum(batch, u_ref.data());
  }
  simd::ScopedKernelOverride pinned(table);
  syn.propagate_accum(snn::SpikeSpan(ids.data(), mags.data(), count, 0),
                      u_got.data());
  for (std::size_t j = 0; j < u_ref.size(); ++j) {
    ASSERT_EQ(bits_of(u_ref[j]), bits_of(u_got[j]))
        << table.isa << " in " << syn.in_size() << " out " << syn.out_size()
        << " count " << count << " slot=" << j;
  }
}

TEST_P(SimdEquivalence, UniformMagnitudeSpanBitExact) {
  Rng rng(0x5a11u);
  for (const std::size_t oc : {8ul, 12ul, 16ul, 24ul, 32ul, 64ul}) {
    for (const std::size_t hw : {16ul, 8ul, 4ul}) {
      const snn::ConvTopology conv(
          Tensor{Shape{oc, 3, 3, 3}, random_floats(rng, oc * 27, -1.0f, 1.0f)},
          hw, hw, 1, 1);
      expect_uniform_span_matches_batch(table(), conv, 37, rng);
      expect_uniform_span_matches_batch(table(), conv,
                                        conv.canonical_threshold(), rng);
    }
  }
  for (const std::size_t out : kFanOuts) {
    const snn::DenseTopology dense(
        Tensor{Shape{out, 40}, random_floats(rng, out * 40, -1.0f, 1.0f)});
    for (const std::size_t count : kCounts) {
      expect_uniform_span_matches_batch(table(), dense, count, rng);
    }
  }
  const snn::PoolTopology pool(4, 8, 8, 2);
  expect_uniform_span_matches_batch(table(), pool, 29, rng);
}

// Accumulator layouts the fire scans take (rows channels x cols positions,
// slot s*rows + c): the identity (rows 1), rows that are and are not a
// multiple of 4 (the 4-lane channel step; 6 is even but not) or of 16 (the
// 512-bit lane group), every zoo channel count up to the 64-channel limit of
// the vector tiles, and position counts below, at and above the 8- and
// 16-position tiles: 48 is a whole number of 16-position tiles but not of
// 32, 1024 the widest identity layout of the zoo and, at 32 and 64
// channels, a layout at and past the 512-bit leaf's staging bound.
constexpr std::size_t kLayoutRows[] = {1, 3, 4, 6, 8, 12, 16, 24, 32, 64};
constexpr std::size_t kLayoutCols[] = {1, 7, 8, 16, 48, 64, 256, 1024};

TEST_P(SimdEquivalence, ThresholdFireBitExact) {
  Rng rng(0x7153a11u);
  for (const std::size_t rows : kLayoutRows) {
    for (const std::size_t cols : kLayoutCols) {
      for (const bool subtract : {false, true}) {
        const std::size_t n = rows * cols;
        // Potentials straddling the threshold, with an exact hit, a
        // negative zero and a NaN that every scan must leave bit for bit.
        auto u_ref = random_floats(rng, n, -0.5f, 1.5f);
        u_ref[n / 2] = 1.0f;  // the >= edge must fire
        if (n > 3) {
          u_ref[n / 3] = -0.0f;
          u_ref[n - 2] = std::nanf("");
        }
        auto u_got = u_ref;
        std::vector<std::uint32_t> fired_ref(n, 0xffffffffu);
        std::vector<std::uint32_t> fired_got(n, 0xffffffffu);

        simd::ThresholdCtx ctx;
        ctx.rows = rows;
        ctx.cols = cols;
        ctx.threshold = 1.0f;
        ctx.subtract = subtract;
        for (int step = 0; step < 3; ++step) {
          ctx.u = u_ref.data();
          ctx.fired = fired_ref.data();
          const std::size_t nref = simd::scalar_kernels().threshold_fire(ctx);
          ctx.u = u_got.data();
          ctx.fired = fired_got.data();
          const std::size_t ngot = table().threshold_fire(ctx);

          ASSERT_EQ(nref, ngot) << table().isa << " layout " << rows << "x"
                                << cols << " subtract=" << subtract
                                << " step=" << step;
          for (std::size_t f = 0; f < nref; ++f) {
            ASSERT_EQ(fired_ref[f], fired_got[f])
                << table().isa << " layout " << rows << "x" << cols
                << " f=" << f;
          }
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(bits_of(u_ref[j]), bits_of(u_got[j]))
                << table().isa << " layout " << rows << "x" << cols
                << " subtract=" << subtract << " slot=" << j;
          }
          for (std::size_t j = 0; j < n; ++j) {  // recharge for the next scan
            u_ref[j] += 0.375f;
            u_got[j] += 0.375f;
          }
        }
      }
    }
  }
}

// The layout contract worked by hand on a 4-channel x 8-position layout
// (one vector tile): neuron j = c*8 + s sits at slot s*4 + c, and the fired
// list is canonical and ascending although the slots fire in another order.
TEST_P(SimdEquivalence, ThresholdFireWorkedLayout) {
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kCols = 8;
  const std::vector<std::uint32_t> fired_want = {1, 6, 8, 15, 16, 17, 26, 31};
  std::vector<float> u(kRows * kCols, 0.5f);
  for (const std::uint32_t j : fired_want) {
    const std::size_t c = j / kCols;
    u[(j % kCols) * kRows + c] = 1.0f + 0.25f * static_cast<float>(c);
  }
  std::vector<std::uint32_t> fired(u.size());
  simd::ThresholdCtx ctx;
  ctx.u = u.data();
  ctx.rows = kRows;
  ctx.cols = kCols;
  ctx.threshold = 1.0f;
  ctx.subtract = true;
  ctx.fired = fired.data();
  fired.resize(table().threshold_fire(ctx));
  EXPECT_EQ(fired, fired_want) << table().isa;
  for (std::size_t slot = 0; slot < u.size(); ++slot) {
    const std::size_t c = slot % kRows;
    const auto j = static_cast<std::uint32_t>(c * kCols + slot / kRows);
    const bool fired_j = std::find(fired_want.begin(), fired_want.end(), j) !=
                         fired_want.end();
    EXPECT_EQ(u[slot], fired_j ? 0.25f * static_cast<float>(c) : 0.5f)
        << table().isa << " slot=" << slot;
  }
}

// Caps 15 and 16 are the largest ladder one 512-bit register holds and the
// first that does not.
TEST_P(SimdEquivalence, BurstFireBitExact) {
  Rng rng(0xb0257u);
  for (const std::uint32_t cap : {4u, 12u, 15u, 16u}) {
    std::vector<float> quanta(cap + 1);
    for (std::uint32_t e = 0; e <= cap; ++e) {
      quanta[e] = 0.4f * static_cast<float>(1u << e);
    }
    for (const std::size_t rows : kLayoutRows) {
      for (const std::size_t cols : kLayoutCols) {
        const std::size_t n = rows * cols;
        // Counters below, at and above the cap -- including one past 2^31,
        // which a signed clamp would turn into a negative table index, and
        // one at 2^32 - 1, whose increment wraps to 0.
        std::vector<std::uint32_t> k_ref(n);
        for (auto& k : k_ref) {
          k = static_cast<std::uint32_t>(rng.uniform_index(cap + 3));
        }
        k_ref[0] = 0;
        k_ref[n / 2] = cap;
        k_ref[n - 1] = 0x80000001u;
        if (n > 3) {
          k_ref[n / 3] = 0xffffffffu;
        }
        // Potentials straddling each neuron's quantum, with exact hits, and
        // a negative zero that an unfired lane must keep bit for bit.
        std::vector<float> u_ref(n);
        for (std::size_t j = 0; j < n; ++j) {
          u_ref[j] = quanta[std::min(k_ref[j], cap)] *
                     static_cast<float>(rng.uniform(-0.5, 1.5));
        }
        u_ref[n / 2] = quanta[cap];
        u_ref[n / 4] = -0.0f;
        if (n > 5) {
          u_ref[n / 5] = quanta[std::min(k_ref[n / 5], cap)];
        }
        auto u_got = u_ref;
        auto k_got = k_ref;
        std::vector<std::uint32_t> fired_ref(n, 0xffffffffu);
        std::vector<std::uint32_t> fired_got(n, 0xffffffffu);

        simd::BurstFireCtx ctx;
        ctx.rows = rows;
        ctx.cols = cols;
        ctx.quanta = quanta.data();
        ctx.cap = cap;
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

          ASSERT_EQ(nref, ngot) << table().isa << " cap " << cap << " layout "
                                << rows << "x" << cols << " step=" << step;
          for (std::size_t f = 0; f < nref; ++f) {
            ASSERT_EQ(fired_ref[f], fired_got[f])
                << table().isa << " cap " << cap << " layout " << rows << "x"
                << cols << " f=" << f;
          }
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(bits_of(u_ref[j]), bits_of(u_got[j]))
                << table().isa << " cap " << cap << " layout " << rows << "x"
                << cols << " slot=" << j;
            ASSERT_EQ(k_ref[j], k_got[j])
                << table().isa << " cap " << cap << " layout " << rows << "x"
                << cols << " slot=" << j;
          }
          for (std::size_t j = 0; j < n; ++j) {  // recharge for the next scan
            u_ref[j] += 0.5f;
            u_got[j] += 0.5f;
          }
        }
      }
    }
  }
}

// The scan's contract worked by hand, so it binds the scalar leaf too: an
// exact hit fires (>=), counters at and above the cap read the top rung, an
// unfired counter resets, and fired indices are canonical and ascending.
TEST_P(SimdEquivalence, BurstFireWorkedExample) {
  const std::vector<float> quanta = {0.5f, 1.0f, 2.0f};  // cap 2
  std::vector<float> u = {0.5f, 0.25f, 3.0f, 1.5f, 1.0f};
  std::vector<std::uint32_t> k = {0, 0, 2, 7, 1};
  std::vector<std::uint32_t> fired(u.size());
  simd::BurstFireCtx ctx;
  ctx.u = u.data();
  ctx.k = k.data();
  ctx.rows = 1;
  ctx.cols = u.size();
  ctx.quanta = quanta.data();
  ctx.cap = 2;
  ctx.fired = fired.data();
  fired.resize(table().burst_fire(ctx));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 2, 4})) << table().isa;
  EXPECT_EQ(k, (std::vector<std::uint32_t>{1, 0, 3, 0, 2})) << table().isa;
  EXPECT_EQ(u, (std::vector<float>{0.0f, 0.25f, 1.0f, 1.5f, 0.0f}))
      << table().isa;
}

// Its transposed twin: 2 channels x 3 positions, so neuron j = c*3 + s sits
// at slot s*2 + c and the arrays below are in slot order. Neurons j = 0..5
// hold u {0.5, 0.25, 3.0, 1.5, 1.0, 0.75} and k {0, 0, 2, 7, 1, 0}; j 0, 2,
// 4 and 5 fire, and the counters, indexed by slot like u, move with them.
TEST_P(SimdEquivalence, BurstFireWorkedExampleTransposed) {
  const std::vector<float> quanta = {0.5f, 1.0f, 2.0f};  // cap 2
  std::vector<float> u = {0.5f, 1.5f, 0.25f, 1.0f, 3.0f, 0.75f};
  std::vector<std::uint32_t> k = {0, 7, 0, 1, 2, 0};
  std::vector<std::uint32_t> fired(u.size());
  simd::BurstFireCtx ctx;
  ctx.u = u.data();
  ctx.k = k.data();
  ctx.rows = 2;
  ctx.cols = 3;
  ctx.quanta = quanta.data();
  ctx.cap = 2;
  ctx.fired = fired.data();
  fired.resize(table().burst_fire(ctx));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 2, 4, 5})) << table().isa;
  EXPECT_EQ(k, (std::vector<std::uint32_t>{1, 0, 0, 2, 3, 1})) << table().isa;
  EXPECT_EQ(u, (std::vector<float>{0.0f, 1.5f, 0.25f, 0.0f, 1.0f, 0.25f}))
      << table().isa;
}

// ConvTopology::propagate_accum through this table against the scalar
// table, slot for slot with ==, on a hand-picked batch and a full-density
// batch with duplicates, which runs in canonical order. Covers every
// channel count a vector table may specialize for the zoo's 3x3 /
// stride-1 / pad-1 layers, at every input size the zoo's layers see and
// below (where no position is interior), shapes that take the general path
// (an unlisted channel count, a 5x5 kernel, stride 2, pad 0), and a
// rectangular input, where swapping width and height would show.
void expect_conv_accum_matches_scalar(const KernelDispatch& table,
                                      std::size_t oc, std::size_t ic,
                                      std::size_t h, std::size_t w,
                                      std::size_t kernel, std::size_t stride,
                                      std::size_t pad, Rng& rng) {
  const auto weights =
      random_floats(rng, oc * ic * kernel * kernel, -1.0f, 1.0f);
  const snn::ConvTopology conv(Tensor{Shape{oc, ic, kernel, kernel}, weights},
                               h, w, stride, pad);
  const std::size_t hw = h * w;
  const auto in = static_cast<std::uint32_t>(conv.in_size());
  // Corner, edge and interior spikes of the first and last input channel,
  // a descending run across a row boundary, duplicate ids (jitter produces
  // both orders), then random ids.
  std::vector<std::uint32_t> ids;
  for (const std::size_t c : {std::size_t{0}, ic - 1}) {
    for (const std::size_t sp :
         {std::size_t{0}, w - 1, (h - 1) * w, hw - 1, w / 2,
          (h - 1) * w + w / 2, (h / 2) * w, (h / 2) * w + w - 1,
          (h / 2) * w + w / 2}) {
      ids.push_back(static_cast<std::uint32_t>(c * hw + sp));
    }
  }
  const std::uint32_t top = std::min(in - 1, static_cast<std::uint32_t>(w + 3));
  for (std::uint32_t d = 0; d < 12 && d <= top; ++d) {
    ids.push_back(top - d);
  }
  ids.push_back(ids[3]);
  ids.push_back(ids[8]);
  ids.push_back(ids[8]);
  for (int r = 0; r < 16; ++r) {
    ids.push_back(static_cast<std::uint32_t>(rng.uniform_index(in)));
  }
  snn::SpikeBatch picked;
  for (const std::uint32_t id : ids) {
    picked.add(id, static_cast<float>(rng.uniform(0.05, 2.0)));
  }
  // Full density with duplicates: as many random ids as the input has
  // neurons, past the canonical threshold on every shape.
  snn::SpikeBatch dense;
  for (std::uint32_t i = 0; i < in; ++i) {
    dense.add(static_cast<std::uint32_t>(rng.uniform_index(in)),
              static_cast<float>(rng.uniform(0.05, 2.0)));
  }

  for (const snn::SpikeBatch* batch : {&picked, &dense}) {
    const auto u0 = random_floats(rng, conv.out_size(), -0.5f, 0.5f);
    auto u_ref = u0;
    auto u_got = u0;
    for (int rep = 0; rep < 2; ++rep) {  // a second batch onto the first
      {
        simd::ScopedKernelOverride scalar(simd::scalar_kernels());
        conv.propagate_accum(*batch, u_ref.data());
      }
      simd::ScopedKernelOverride pinned(table);
      conv.propagate_accum(*batch, u_got.data());
    }
    for (std::size_t j = 0; j < u_ref.size(); ++j) {
      ASSERT_EQ(u_ref[j], u_got[j])
          << table.isa << " oc=" << oc << " ic=" << ic << " in " << h << "x"
          << w << " k=" << kernel << " stride=" << stride << " pad=" << pad
          << " batch " << batch->size() << " slot=" << j;
    }
  }
}

TEST_P(SimdEquivalence, ConvAccumBitExactOnZooShapes) {
  Rng rng(0xc0a7u);
  for (const std::size_t oc : {8ul, 12ul, 16ul, 24ul, 32ul, 64ul}) {
    for (const std::size_t ic : {1ul, 3ul, 16ul}) {
      for (const std::size_t hw : {16ul, 8ul, 4ul, 2ul, 1ul}) {
        expect_conv_accum_matches_scalar(table(), oc, ic, hw, hw, 3, 1, 1, rng);
      }
    }
  }
  expect_conv_accum_matches_scalar(table(), 20, 3, 8, 8, 3, 1, 1, rng);
  expect_conv_accum_matches_scalar(table(), 16, 3, 9, 9, 5, 1, 2, rng);
  expect_conv_accum_matches_scalar(table(), 16, 3, 9, 9, 3, 2, 1, rng);
  expect_conv_accum_matches_scalar(table(), 16, 3, 8, 8, 3, 1, 0, rng);
  expect_conv_accum_matches_scalar(table(), 16, 3, 6, 10, 3, 1, 1, rng);
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

// gauss_shifts of the pairs in `u` through `table`.
std::vector<std::int32_t> gauss_shifts(const KernelDispatch& table,
                                       const std::vector<double>& u,
                                       double sigma, std::int32_t limit) {
  std::vector<std::int32_t> out(u.size(), -7);
  simd::GaussShiftCtx ctx;
  ctx.u = u.data();
  ctx.pairs = u.size() / 2;
  ctx.sigma = sigma;
  ctx.limit = limit;
  ctx.out = out.data();
  table.gauss_shifts(ctx);
  return out;
}

void expect_gauss_shifts_exact(const KernelDispatch& table,
                               const std::vector<double>& u, double sigma,
                               std::int32_t limit) {
  const std::vector<std::int32_t> want =
      gauss_shifts(simd::scalar_kernels(), u, sigma, limit);
  const std::vector<std::int32_t> got = gauss_shifts(table, u, sigma, limit);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << table.isa << " sigma " << sigma << " limit " << limit << " pair "
        << i / 2 << " (u1 " << u[i & ~std::size_t{1}] << ", u2 "
        << u[i | 1] << ")";
  }
}

TEST_P(SimdEquivalence, GaussShiftsBitExact) {
  Rng rng(0x9a55u);
  for (const std::size_t pairs : {0ul, 1ul, 3ul, 4ul, 5ul, 13ul, 4096ul}) {
    std::vector<double> u(2 * pairs);
    rng.uniform_pairs(pairs, u.data());
    for (const double sigma :
         {0.0, 0.5, 1.0, 2.0, 3.0, 50.0, 1e4, 1e17, 1e300}) {
      for (const std::int32_t limit : {0, 15, 1 << 30}) {
        expect_gauss_shifts_exact(table(), u, sigma, limit);
      }
    }
  }
}

// u2 at and next to the quadrant boundaries 0, 1/4, 1/2, 3/4 (and 1), and
// to the odd eighths where a vector leaf's quadrant reduction may switch;
// u1 at the 1e-300 clamp, at the top of [0, 1), and on both sides of the
// powers of two and of the sqrt(2) mantissa split.
TEST_P(SimdEquivalence, GaussShiftsAtReductionBoundaries) {
  const double ulp = 0x1p-53;  // Rng::uniform()'s grid
  std::vector<double> u2s;
  for (int eighth = 0; eighth <= 8; ++eighth) {
    for (int k = -2; k <= 2; ++k) {
      const double v = eighth / 8.0 + k * ulp;
      if (v >= 0.0 && v < 1.0) {
        u2s.push_back(v);
      }
    }
  }
  std::vector<double> u1s = {1e-300, ulp, 1e-9, 0.25, 1.0 - ulp, 1.0 - 2 * ulp};
  for (const double edge : {0.5, std::numbers::sqrt2 / 2, std::numbers::sqrt2 / 4,
                            std::numbers::sqrt2 / 1024}) {
    u1s.push_back(std::nextafter(edge, 0.0));
    u1s.push_back(edge);
    u1s.push_back(std::nextafter(edge, 1.0));
  }
  std::vector<double> u;
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      u.push_back(u1);
      u.push_back(u2);
    }
  }
  for (const double sigma : {1.0, 2.5, 3.0, 1e4, 1e300}) {
    for (const std::int32_t limit : {15, 1 << 30}) {
      expect_gauss_shifts_exact(table(), u, sigma, limit);
    }
  }
}

// Constructed in-margin pairs: u1 = 1/2 gives r = sqrt(-2 ln 1/2), and
// sigma = (k + 1/2) / r puts sigma * r * cos(theta) within an ulp of the
// half-integer +-(k + 1/2) at u2 = 0 and 1/2, where rounding any
// approximation to nearest could land on either side. A vector leaf must
// recompute these pairs with libm -- alone in a block, filling one, and
// in the padded tail block.
TEST_P(SimdEquivalence, GaussShiftsRecomputeInsideTheMargin) {
  const double r = std::sqrt(-2.0 * std::log(0.5));
  Rng rng(0x4a11u);
  for (int k = 0; k <= 5; ++k) {
    const double sigma = (k + 0.5) / r;
    ASSERT_NEAR(0.0 + sigma * (r * std::cos(0.0)), k + 0.5, 1e-14);
    for (const double u2 : {0.0, 0.5}) {
      for (const std::size_t pairs : {1ul, 4ul, 7ul, 8ul, 9ul, 17ul}) {
        std::vector<double> all(2 * pairs);
        for (std::size_t i = 0; i < pairs; ++i) {
          all[2 * i] = 0.5;
          all[2 * i + 1] = u2;
        }
        expect_gauss_shifts_exact(table(), all, sigma, 1 << 30);
        for (std::size_t lane = 0; lane < pairs; ++lane) {
          std::vector<double> one(2 * pairs);
          rng.uniform_pairs(pairs, one.data());
          one[2 * lane] = 0.5;
          one[2 * lane + 1] = u2;
          expect_gauss_shifts_exact(table(), one, sigma, 1 << 30);
        }
      }
    }
  }
}

// At sigma = 1, 2 and 3 (the jitter grid's levels): random pairs, and
// pairs built to land a shift a distance delta from a half-integer, with
// delta swept from 1e-9 to 1e-3 of sigma * r across every vector leaf's
// recompute margin -- inside it the leaf must recompute, just outside it
// its approximation alone must round right. Blocks of 1 to 19 pairs cover
// whole blocks and the padded tail.
TEST_P(SimdEquivalence, GaussShiftsNearHalfIntegersAtJitterSigmas) {
  Rng rng(0x5e1au);
  for (const double sigma : {1.0, 2.0, 3.0}) {
    std::vector<double> random(2 * 20000);
    rng.uniform_pairs(20000, random.data());
    expect_gauss_shifts_exact(table(), random, sigma, 63);
    std::vector<double> near;
    for (int i = 0; i < 20000; ++i) {
      const double u2 = rng.uniform();
      const double c = (i % 2 == 0 ? std::cos(2.0 * std::numbers::pi * u2)
                                   : std::sin(2.0 * std::numbers::pi * u2));
      const double k = static_cast<double>(rng.uniform_index(8)) + 0.5;
      const double rel = std::pow(10.0, -9.0 + 6.0 * rng.uniform());
      const double v = (c < 0 ? -k : k);
      // r with sigma * r * c = v (1 + rel) or v (1 - rel).
      const double r = v * (1.0 + (i % 4 < 2 ? rel : -rel)) / (sigma * c);
      const double u1 = std::exp(-0.5 * r * r);
      if (!(std::fabs(c) > 1e-3) || !(u1 >= 1e-300 && u1 < 1.0)) {
        continue;
      }
      near.push_back(u1);
      near.push_back(u2);
    }
    expect_gauss_shifts_exact(table(), near, sigma, 63);
    for (std::size_t pairs = 1; pairs <= 19; ++pairs) {
      const std::vector<double> head(near.begin(),
                                     near.begin() + 2 * static_cast<long>(pairs));
      expect_gauss_shifts_exact(table(), head, sigma, 63);
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

// --------------------------------------------------------------------------
// CPU flag parsing (pure function, independent of the host).

TEST(CpuFlags, ParseCpuflags) {
  // The trimmed value as a whole: unset and native allow every table,
  // avx2 caps the choice at the avx2 table (so an AVX-512 host can still
  // run it), avx512 allows both vector tables, and scalar forces the
  // reference table.
  EXPECT_EQ(cpu::parse_cpuflags(""), ~0u);
  EXPECT_EQ(cpu::parse_cpuflags("  "), ~0u);
  EXPECT_EQ(cpu::parse_cpuflags("native"), ~0u);
  EXPECT_EQ(cpu::parse_cpuflags("avx2"), std::uint32_t{cpu::kAvx2});
  EXPECT_EQ(cpu::parse_cpuflags(" avx2\n"), std::uint32_t{cpu::kAvx2});
  EXPECT_EQ(cpu::parse_cpuflags("avx512"), cpu::kAvx2 | cpu::kAvx512);
  EXPECT_EQ(cpu::parse_cpuflags("\tavx512 "), cpu::kAvx2 | cpu::kAvx512);
  EXPECT_EQ(cpu::parse_cpuflags("scalar"), 0u);
  // Anything else warns and forces the reference table: there are no
  // separators, no case folding, and no other names.
  EXPECT_EQ(cpu::parse_cpuflags("scalar,avx2"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("avx2+fma"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("avx512f"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("AVX2"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("all"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("none"), 0u);
  EXPECT_EQ(cpu::parse_cpuflags("bogus"), 0u);
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
