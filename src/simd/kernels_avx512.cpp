// AVX-512 kernel leaves. Compiled with -mavx512f -ffp-contract=off;
// dispatch selects the avx512 table only when cpu::allowed_features()
// includes kAvx512 (an AVX-512F host, with TSNN_CPUFLAGS unset, native or
// avx512), so no AVX-512 instruction executes anywhere else. This file
// therefore holds no object with a run-time initializer (one would run at
// load, on every host): the table itself is constinit in kernels_avx2.cpp.
//
// The table is the avx2 table with three entries replaced: conv_taps,
// threshold_fire and burst_fire. The 3x3 conv leaf is bound by loads and
// stores of accumulator rows, not by the (L1-resident) weights, so holding
// a 16-channel row in one 512-bit register instead of two 256-bit ones is
// what pays. The fire scans compare sixteen lanes into a mask register,
// drain only the fired lanes with a masked store, and pack fired ids with
// vpcompressd. Every other leaf keeps its avx2 body. Bit-exactness is the
// avx2 leaves' argument: each conv slot still gets one mul and one add per
// spike, in spike order, and each scanned neuron the scalar compare,
// subtraction and counter update. Only AVX-512F instructions are used.
#include "simd/kernels_internal.h"

#if defined(TSNN_SIMD_AVX512) && defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
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
    const __m512 m = _mm512_set1_ps(ctx.mag[i * ctx.mag_stride]);
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

// -------------------------------------------------------- fire scans ----
//
// A kernel's rule runs on sixteen consecutive slots at a time (a Group's
// run<kFull>: every lane, or only `lanes`, whose other lanes are neither
// loaded nor stored) and returns the fire mask. Sixteen-slot blocks never
// overlap, so no masked store stalls a later block's load. Pass 1 runs the
// rule over every slot in slot order into a stack buffer of 16-bit mask
// words. The identity layout (rows == 1: encoders, pool and fc stages) is
// already canonical, and its words are packed as they are. A channel-major
// layout (rows channels x cols positions, slot s*rows + c) takes pass 2:
// sixteen positions' masks, up to 32 channels each, are cut out of the
// slot-order bits into sixteen 32-bit lanes (two permutes and two shifts),
// once per 16-position tile; then, channel after channel and tile after
// tile -- canonical order -- one vptestmd reads channel c's bit of each
// lane. A channel that fired nowhere (its bit is clear in the OR of every
// tile's lanes) is skipped whole. Packing a word is one vpcompressd of its
// ids, stored whole at fired + count: count never exceeds the word's first
// canonical index, so the store stays inside the rows*cols fired buffer (a
// partial last word is stored masked).

// Largest layout, in 16-bit mask words (rows*cols / 16), and most tiles of
// a channel-major layout: the staging is on the stack, so the scans
// allocate nothing. Bigger layouts, more than 64 channels, and position
// counts that are not a multiple of 16 take the avx2 leaf.
constexpr std::size_t kMaxMaskWords = 2048;
constexpr std::size_t kMaxTiles = 64;
// Pass 2 reads 64 words from each tile's first word on.
constexpr std::size_t kMaskPad = 64;

// Every lane. Where an intrinsic has an undefined merge operand, its maskz
// form with kAll stands in: it compiles to the same unmasked instruction,
// and GCC 12 at -O3 flags the undefined operand (-Wmaybe-uninitialized).
constexpr __mmask16 kAll = 0xFFFF;

inline __mmask16 first_lanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1);
}

inline __m512i lane_index() {
  return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                           15);
}

bool layout_fits(std::size_t rows, std::size_t cols) {
  return rows * cols <= 16 * kMaxMaskWords &&
         (rows == 1 ||
          (rows <= 64 && cols % 16 == 0 && cols / 16 <= kMaxTiles));
}

// The canonical ids of each fired bit, one 16-neuron word at a time.
class IdPacker {
 public:
  explicit IdPacker(std::uint32_t* fired) : fired_(fired) {}

  void word(__mmask16 m) {
    _mm512_storeu_si512(fired_ + count_, _mm512_maskz_compress_epi32(m, ids_));
    next(m);
  }
  void last_word(__mmask16 m) {
    _mm512_mask_compressstoreu_epi32(fired_ + count_, m, ids_);
    next(m);
  }
  /// The next word holds canonical ids [first, first + 16): words may be
  /// skipped, forwards only.
  void seek(std::size_t first) {
    ids_ = _mm512_add_epi32(lane_index(),
                            _mm512_set1_epi32(static_cast<int>(first)));
  }
  std::size_t count() const { return count_; }

 private:
  void next(__mmask16 m) {
    count_ += static_cast<std::size_t>(__builtin_popcount(m));
    ids_ = _mm512_add_epi32(ids_, _mm512_set1_epi32(16));
  }

  std::uint32_t* fired_;
  std::size_t count_ = 0;
  __m512i ids_ = lane_index();
};

// The OR of v's sixteen lanes.
inline std::uint32_t or_lanes(__m512i v) {
  const __m256i r8 = _mm256_or_si256(_mm512_maskz_extracti64x4_epi64(0xFF, v, 0),
                                     _mm512_maskz_extracti64x4_epi64(0xFF, v, 1));
  const __m128i r4 = _mm_or_si128(_mm256_castsi256_si128(r8),
                                  _mm256_extracti128_si256(r8, 1));
  const __m128i r2 = _mm_or_si128(r4, _mm_unpackhi_epi64(r4, r4));
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_or_si128(r2, _mm_srli_epi64(r2, 32))));
}

// Pass 2 and the packing: the masks are padded by kMaskPad zero words.
// Position i of a tile starts at bit rows*i of the tile's first word; its
// channels 32h.. sit in the 32-bit window at that bit plus 32h, cut from
// the two u32 lanes the window spans.
std::size_t pack_channels(const std::uint16_t* masks, std::size_t rows,
                          std::size_t cols, std::uint32_t* fired) {
  const std::size_t tiles = cols / 16;
  const __m512i bit0 = _mm512_mullo_epi32(
      lane_index(), _mm512_set1_epi32(static_cast<int>(rows)));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i pos[kMaxTiles];
  IdPacker pack(fired);
  for (std::size_t h = 0; 32 * h < rows; ++h) {
    const std::size_t width = std::min<std::size_t>(32, rows - 32 * h);
    const __m512i at =
        _mm512_add_epi32(bit0, _mm512_set1_epi32(static_cast<int>(32 * h)));
    const __m512i lo_lane = _mm512_maskz_srli_epi32(kAll, at, 5);
    const __m512i hi_lane = _mm512_add_epi32(lo_lane, one);
    const __m512i shift = _mm512_and_si512(at, _mm512_set1_epi32(31));
    const __m512i back = _mm512_sub_epi32(_mm512_set1_epi32(32), shift);
    __m512i any = _mm512_setzero_si512();
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::uint16_t* w = masks + rows * tile;
      const __m512i a = _mm512_loadu_si512(w);
      const __m512i b = _mm512_loadu_si512(w + 32);
      pos[tile] = _mm512_or_si512(
          _mm512_maskz_srlv_epi32(kAll, _mm512_permutex2var_epi32(a, lo_lane, b),
                                  shift),
          _mm512_maskz_sllv_epi32(kAll, _mm512_permutex2var_epi32(a, hi_lane, b),
                                  back));
      any = _mm512_or_si512(any, pos[tile]);
    }
    std::uint32_t live = or_lanes(any);  // the channels that fired
    if (width < 32) {
      live &= (1u << width) - 1;
    }
    for (; live != 0; live &= live - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(live));
      pack.seek((32 * h + c) * cols);
      const __m512i bit = _mm512_set1_epi32(static_cast<int>(1u << c));
      for (std::size_t tile = 0; tile < tiles; ++tile) {
        pack.word(_mm512_test_epi32_mask(pos[tile], bit));
      }
    }
  }
  return pack.count();
}

// `group` is taken by value: a copy the masked stores through its u cannot
// alias, so its threshold or ladder stays in a register.
template <typename Group>
std::size_t scan_layout(std::size_t rows, std::size_t cols, const Group group,
                        std::uint32_t* fired) {
  alignas(64) std::uint16_t masks[kMaxMaskWords + kMaskPad];
  const std::size_t n = rows * cols;
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    masks[j / 16] = group.template run<true>(j, kAll);
  }
  if (rows != 1) {
    std::fill_n(masks + n / 16, kMaskPad, std::uint16_t{0});
    return pack_channels(masks, rows, cols, fired);
  }
  IdPacker pack(fired);
  for (std::size_t w = 0; w < n / 16; ++w) {
    pack.word(masks[w]);
  }
  if (j < n) {
    pack.last_word(group.template run<false>(j, first_lanes(n - j)));
  }
  return pack.count();
}

template <bool Subtract>
struct ThresholdGroup {
  float* u;
  __m512 threshold;

  template <bool kFull>
  __mmask16 run(std::size_t slot, __mmask16 lanes) const {
    float* p = u + slot;
    const __m512 v = kFull ? _mm512_loadu_ps(p) : _mm512_maskz_loadu_ps(lanes, p);
    const __mmask16 ge =
        kFull ? _mm512_cmp_ps_mask(v, threshold, _CMP_GE_OQ)
              : _mm512_mask_cmp_ps_mask(lanes, v, threshold, _CMP_GE_OQ);
    if constexpr (Subtract) {
      _mm512_mask_storeu_ps(p, ge, _mm512_sub_ps(v, threshold));
    }
    return ge;
  }
};

// The quantum of a counter k is quanta[min(k, cap)]: the cap + 1 rungs sit
// in one register (so caps up to 15) and each lane's rung is a permute.
struct BurstGroup {
  float* u;
  std::uint32_t* k;
  __m512 ladder;
  __m512i cap;

  template <bool kFull>
  __mmask16 run(std::size_t slot, __mmask16 lanes) const {
    float* up = u + slot;
    std::uint32_t* kp = k + slot;
    const __m512i kk =
        kFull ? _mm512_loadu_si512(kp) : _mm512_maskz_loadu_epi32(lanes, kp);
    const __m512 q = _mm512_maskz_permutexvar_ps(
        kAll, _mm512_maskz_min_epu32(kAll, kk, cap), ladder);
    const __m512 v = kFull ? _mm512_loadu_ps(up) : _mm512_maskz_loadu_ps(lanes, up);
    const __mmask16 ge = kFull ? _mm512_cmp_ps_mask(v, q, _CMP_GE_OQ)
                               : _mm512_mask_cmp_ps_mask(lanes, v, q, _CMP_GE_OQ);
    _mm512_mask_storeu_ps(up, ge, _mm512_sub_ps(v, q));
    const __m512i next = _mm512_maskz_add_epi32(ge, kk, _mm512_set1_epi32(1));
    if constexpr (kFull) {
      _mm512_storeu_si512(kp, next);
    } else {
      _mm512_mask_storeu_epi32(kp, lanes, next);
    }
    return ge;
  }
};

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

std::size_t ax_threshold_fire(const ThresholdCtx& ctx) {
  if (!layout_fits(ctx.rows, ctx.cols)) {
    return kAvx2Table.threshold_fire(ctx);
  }
  const __m512 threshold = _mm512_set1_ps(ctx.threshold);
  if (ctx.subtract) {
    return scan_layout(ctx.rows, ctx.cols,
                       ThresholdGroup<true>{ctx.u, threshold}, ctx.fired);
  }
  return scan_layout(ctx.rows, ctx.cols,
                     ThresholdGroup<false>{ctx.u, threshold}, ctx.fired);
}

std::size_t ax_burst_fire(const BurstFireCtx& ctx) {
  if (ctx.cap >= 16 || !layout_fits(ctx.rows, ctx.cols)) {
    return kAvx2Table.burst_fire(ctx);
  }
  const BurstGroup group{
      ctx.u, ctx.k, _mm512_maskz_loadu_ps(first_lanes(ctx.cap + 1), ctx.quanta),
      _mm512_set1_epi32(static_cast<int>(ctx.cap))};
  return scan_layout(ctx.rows, ctx.cols, group, ctx.fired);
}

}  // namespace tsnn::simd

#endif  // TSNN_SIMD_AVX512 && __AVX512F__
