// AVX-512 kernel leaf. Compiled with -mavx512f -ffp-contract=off; dispatch
// selects the avx512 table only when cpu::allowed_features() includes
// kAvx512 (an AVX-512F host, with TSNN_CPUFLAGS unset, native or avx512),
// so no AVX-512 instruction executes anywhere else. This file therefore
// holds no object with a run-time initializer (one would run at load, on
// every host): the table itself is constinit in kernels_avx2.cpp.
//
// The table is the avx2 table with one entry replaced: conv_taps. The 3x3
// leaf is bound by loads and stores of accumulator rows, not by the
// (L1-resident) weights, so holding a 16-channel row in one 512-bit
// register instead of two 256-bit ones is what pays; every other leaf
// keeps its avx2 body. Bit-exactness is the avx2 leaf's argument: each
// slot still gets one mul and one add per spike, in spike order.
#include "simd/kernels_internal.h"

#if defined(TSNN_SIMD_AVX512) && defined(__AVX512F__)

#include <immintrin.h>

#include <bit>

namespace tsnn::simd {
namespace {

// u[0..OC) += m * w[0..OC) in whole 16-lane steps.
template <std::size_t OC>
inline void madd_row(float* u, const float* w, __m512 m) {
  static_assert(OC % 16 == 0, "channel count must be a multiple of 16");
#pragma GCC unroll 4
  for (std::size_t c = 0; c < OC; c += 16) {
    const __m512 uv = _mm512_loadu_ps(u + c);
    const __m512 wv = _mm512_loadu_ps(w + c);
    _mm512_storeu_ps(u + c, _mm512_add_ps(uv, _mm512_mul_ps(m, wv)));
  }
}

// The avx2 table's 3x3 / stride-1 / pad-1 leaf (av_conv3x3) with 512-bit
// rows: interior positions at fixed row offsets, border positions through
// the tap table, in the table's order.
template <std::size_t OC, bool kShift>
void ax_conv3x3(const ConvTapCtx& ctx) {
  const auto in_hw = static_cast<std::uint32_t>(ctx.in_hw);
  const auto w = static_cast<std::uint32_t>(ctx.in_w);
  const auto h = static_cast<std::uint32_t>(ctx.in_h);
  const int hw_bits = std::countr_zero(in_hw);
  const int w_bits = std::countr_zero(w);
  const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(w * OC);
  for (std::size_t i = 0; i < ctx.count; ++i) {
    const std::uint32_t pre = ctx.pre[i];
    const std::uint32_t ic = kShift ? pre >> hw_bits : pre / in_hw;
    const std::uint32_t sp = pre - ic * in_hw;
    const std::uint32_t iy = kShift ? sp >> w_bits : sp / w;
    const std::uint32_t ix = sp - iy * w;
    const float* wbase = ctx.wt + static_cast<std::size_t>(ic) * 9 * OC;
    const __m512 m = _mm512_set1_ps(ctx.mag[i]);
    if (iy >= 1 && iy + 1 < h && ix >= 1 && ix + 1 < w) {
      float* centre = ctx.u + static_cast<std::size_t>(sp) * OC;
      for (std::ptrdiff_t ky = 0; ky < 3; ++ky) {
        float* r = centre + (1 - ky) * row;
        const float* wr = wbase + static_cast<std::size_t>(ky) * 3 * OC;
        madd_row<OC>(r + OC, wr, m);
        madd_row<OC>(r, wr + OC, m);
        madd_row<OC>(r - OC, wr + 2 * OC, m);
      }
    } else {
      const std::uint32_t end = ctx.tap_offset[sp + 1];
      for (std::uint32_t t = ctx.tap_offset[sp]; t < end; ++t) {
        const ConvTap tap = ctx.taps[t];
        madd_row<OC>(ctx.u + static_cast<std::size_t>(tap.spatial) * OC,
                     wbase + static_cast<std::size_t>(tap.wofs) * OC, m);
      }
    }
  }
}

template <std::size_t OC>
void ax_conv3x3(const ConvTapCtx& ctx) {
  if (std::has_single_bit(ctx.in_hw) && std::has_single_bit(ctx.in_w)) {
    ax_conv3x3<OC, true>(ctx);
  } else {
    ax_conv3x3<OC, false>(ctx);
  }
}

}  // namespace

// 16, 32 and 64 channels fill whole 512-bit rows; every other shape runs
// the avx2 leaf.
void ax_conv_taps(const ConvTapCtx& ctx) {
  if (ctx.in_w != 0) {
    switch (ctx.oc) {
      case 16: return ax_conv3x3<16>(ctx);
      case 32: return ax_conv3x3<32>(ctx);
      case 64: return ax_conv3x3<64>(ctx);
      default: break;
    }
  }
  kAvx2Table.conv_taps(ctx);
}

}  // namespace tsnn::simd

#endif  // TSNN_SIMD_AVX512 && __AVX512F__
