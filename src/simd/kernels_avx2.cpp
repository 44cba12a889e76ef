// AVX2 kernel variants. Compiled with -mavx2 -ffp-contract=off; dispatch
// only ever selects this table (or the avx512 table, which reuses every
// leaf here but conv_taps, threshold_fire and burst_fire, and is defined at
// the end of this file) when cpu::allowed_features() includes the bit, so
// no AVX2 instruction executes on a host without it.
//
// Bit-exactness discipline (see simd/kernels.h): every kernel here
// vectorizes across independent destination slots -- the fan-out
// dimension, or the neurons of a fire scan -- so each slot still receives
// its contributions in batch order, as one mul and one add, and
// -ffp-contract=off keeps the compiler from contracting the scalar tails.
// gauss_shifts, whose outputs are integers, approximates and then verifies
// (its section below states the error bound).
#include "simd/kernels_internal.h"

#if defined(TSNN_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numbers>

#include "common/cpu.h"

namespace tsnn::simd {
namespace {

// ------------------------------------------------------- dense scatter ----

// Spikes are blocked four at a time so each 8-wide strip of u is loaded and
// stored once per four contributions instead of once per spike -- the scatter
// is u-traffic-bound at large fan-out. Within a strip the four contributions
// are added in spike order, so every u[j] sees the same addition sequence as
// the scalar loop.
void av_dense_scatter(const DenseScatterCtx& ctx) {
  const std::size_t out = ctx.out;
  const std::size_t stride = ctx.mag_stride;
  std::size_t i = 0;
  for (; i + 4 <= ctx.count; i += 4) {
    const float* c0 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 0]) * out;
    const float* c1 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 1]) * out;
    const float* c2 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 2]) * out;
    const float* c3 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 3]) * out;
    const float s0 = ctx.mag[(i + 0) * stride];
    const float s1 = ctx.mag[(i + 1) * stride];
    const float s2 = ctx.mag[(i + 2) * stride];
    const float s3 = ctx.mag[(i + 3) * stride];
    const __m256 m0 = _mm256_set1_ps(s0);
    const __m256 m1 = _mm256_set1_ps(s1);
    const __m256 m2 = _mm256_set1_ps(s2);
    const __m256 m3 = _mm256_set1_ps(s3);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8) {
      __m256 u = _mm256_loadu_ps(ctx.u + j);
      u = _mm256_add_ps(u, _mm256_mul_ps(m0, _mm256_loadu_ps(c0 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m1, _mm256_loadu_ps(c1 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m2, _mm256_loadu_ps(c2 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m3, _mm256_loadu_ps(c3 + j)));
      _mm256_storeu_ps(ctx.u + j, u);
    }
    for (; j < out; ++j) {
      float u = ctx.u[j];
      u += s0 * c0[j];
      u += s1 * c1[j];
      u += s2 * c2[j];
      u += s3 * c3[j];
      ctx.u[j] = u;
    }
  }
  for (; i < ctx.count; ++i) {
    const float* col = ctx.wt + static_cast<std::size_t>(ctx.pre[i]) * out;
    const float s = ctx.mag[i * stride];
    const __m256 m = _mm256_set1_ps(s);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8) {
      const __m256 u = _mm256_loadu_ps(ctx.u + j);
      const __m256 w = _mm256_loadu_ps(col + j);
      _mm256_storeu_ps(ctx.u + j, _mm256_add_ps(u, _mm256_mul_ps(m, w)));
    }
    for (; j < out; ++j) {
      ctx.u[j] += s * col[j];
    }
  }
}

// ----------------------------------------------------------- conv taps ----

// u[0..OC) += m * w[0..OC) for a compile-time channel count: whole 8-lane
// steps, then one 4-lane SSE step when OC % 8 == 4. A masked tail store
// would stall store forwarding into the next spike's loads of the row.
template <std::size_t OC>
inline void madd_row(float* u, const float* w, __m256 m) {
  static_assert(OC % 4 == 0, "channel count must be a multiple of 4");
#pragma GCC unroll 8
  for (std::size_t c = 0; c + 8 <= OC; c += 8) {
    const __m256 uv = _mm256_loadu_ps(u + c);
    const __m256 wv = _mm256_loadu_ps(w + c);
    _mm256_storeu_ps(u + c, _mm256_add_ps(uv, _mm256_mul_ps(m, wv)));
  }
  if constexpr (OC % 8 == 4) {
    constexpr std::size_t c = OC - 4;
    const __m128 m4 = _mm256_castps256_ps128(m);
    const __m128 uv = _mm_loadu_ps(u + c);
    const __m128 wv = _mm_loadu_ps(w + c);
    _mm_storeu_ps(u + c, _mm_add_ps(uv, _mm_mul_ps(m4, wv)));
  }
}

// The 3x3 / stride-1 / pad-1 leaf at OC output channels. Input position
// (iy, ix) feeds output (iy + 1 - ky, ix + 1 - kx) through weight ky*3 + kx,
// so an interior position's nine output rows sit at fixed offsets from its
// own spatial slot; border positions walk the tap table. The taps are the
// table's, in the table's order, so the sums are the scalar leaf's. With
// kShift (a power-of-two plane and width: every zoo conv layer) each spike's
// (ic, iy, ix) split is two shifts instead of two divides.
template <std::size_t OC, bool kShift>
void av_conv3x3(const ConvTapCtx& ctx) {
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
    const __m256 m = _mm256_set1_ps(ctx.mag[i * ctx.mag_stride]);
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
void av_conv3x3(const ConvTapCtx& ctx) {
  if (std::has_single_bit(ctx.in_hw) && std::has_single_bit(ctx.in_w)) {
    av_conv3x3<OC, true>(ctx);
  } else {
    av_conv3x3<OC, false>(ctx);
  }
}

// One fixed-shape leaf per zoo channel count; every other shape (or a table
// without the 3x3 geometry) runs the scalar leaf.
void av_conv_taps(const ConvTapCtx& ctx) {
  if (ctx.in_w != 0) {
    switch (ctx.oc) {
      case 8: return av_conv3x3<8>(ctx);
      case 12: return av_conv3x3<12>(ctx);
      case 16: return av_conv3x3<16>(ctx);
      case 24: return av_conv3x3<24>(ctx);
      case 32: return av_conv3x3<32>(ctx);
      case 64: return av_conv3x3<64>(ctx);
      default: break;
    }
  }
  sc_conv_taps(ctx);
}

// ------------------------------------------------------- left-packing ----

// Left-pack via a 256-entry permutation LUT: an 8-bit lane mask indexes the
// lane order that gathers the selected elements to the front, and the whole
// 8-lane block is stored at dst + k (popcount advances k, the extra lanes
// are overwritten by the next block).
const std::array<std::array<std::uint8_t, 8>, 256>& compact_lut() {
  static const auto lut = [] {
    std::array<std::array<std::uint8_t, 8>, 256> t{};
    for (int mask = 0; mask < 256; ++mask) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if ((mask >> lane) & 1) {
          t[mask][out++] = static_cast<std::uint8_t>(lane);
        }
      }
    }
    return t;
  }();
  return lut;
}

// Stores the canonical indices base + lane of the set lanes of `mask`,
// ascending, at out[0..popcount) -- and up to 8 entries in all, so the
// caller keeps out + 8 inside its buffer. Returns popcount(mask).
inline std::size_t pack_lanes(unsigned mask, std::uint32_t base,
                              std::uint32_t* out) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(compact_lut()[mask].data())));
  const __m256i idx =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base)), iota);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(idx, lanes));
  return static_cast<std::size_t>(__builtin_popcount(mask));
}

// -------------------------------------------------------- fire scans ----
//
// Identity layouts (rows == 1: encoders, pool and fc stages) scan eight
// contiguous neurons per step and left-pack the fired ones. A channel-major
// conv layout (rows channels x cols positions, slot s*rows + c) is scanned
// contiguously in tiles of eight positions: each 8-channel group of a tile
// yields eight compare masks (one byte per position), which one 8x8 bit
// transpose turns into per-channel bytes -- byte c*cols/8 + tile of a
// canonical fired bitmap. A second pass left-packs the bitmap, so fired
// indices come out canonical and ascending. Subtraction is a blend, so an
// unfired lane keeps its bits exactly. Packed stores write 8 entries at
// fired + count with count <= the canonical index of the block, so they
// stay inside the rows*cols fired buffer.

// Largest tiled layout: its fired bitmap is a bounded stack buffer (the
// scans allocate nothing); bigger layouts take the scalar leaf.
constexpr std::size_t kMaxTiledNeurons = 32768;

bool tiles_fit(std::size_t rows, std::size_t cols) {
  return rows % 4 == 0 && rows <= 64 && cols % 8 == 0 &&
         rows * cols <= kMaxTiledNeurons;
}

// 8x8 bit-matrix transpose, row r in byte r and column c in bit c: returns
// column c in byte c (three delta swaps, Hacker's Delight 7-3).
inline std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

// Tile walk of a channel-major layout. group.run<W>(slot) scans the W (8
// or 4) channels at `slot` -- one position of a channel group -- and
// returns their fire mask; the masks land transposed in `bits`, one bit per
// neuron in canonical order. Every byte of the rows*cols/8 bitmap is
// written once. No branch depends on the data: at the scans' firing
// densities a skip test would mispredict more often than it saves.
template <typename Group>
void scan_tiles(std::size_t rows, std::size_t cols, std::uint8_t* bits,
                const Group& group) {
  const std::size_t tiles = cols / 8;
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::size_t slot0 = tile * 8 * rows;
    for (std::size_t c0 = 0; c0 < rows; c0 += 8) {
      const bool wide = c0 + 8 <= rows;
      std::uint64_t x = 0;
      for (std::size_t p = 0; p < 8; ++p) {
        const std::size_t slot = slot0 + p * rows + c0;
        const unsigned mask = wide ? group.template run<8>(slot)
                                   : group.template run<4>(slot);
        x |= static_cast<std::uint64_t>(mask) << (8 * p);
      }
      x = transpose8x8(x);
      const std::size_t width = wide ? 8 : 4;
      for (std::size_t c = 0; c < width; ++c) {
        bits[(c0 + c) * tiles + tile] = static_cast<std::uint8_t>(x >> (8 * c));
      }
    }
  }
}

// Left-packs the canonical indices of every set bit of `bits` (n / 8
// bytes), skipping all-zero 8-byte words.
std::size_t pack_bitmap(const std::uint8_t* bits, std::size_t n,
                        std::uint32_t* fired) {
  std::size_t count = 0;
  const std::size_t nbytes = n / 8;
  std::size_t b = 0;
  for (; b + 8 <= nbytes; b += 8) {
    std::uint64_t word;
    std::memcpy(&word, bits + b, sizeof(word));
    if (word == 0) {
      continue;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      count += pack_lanes(static_cast<unsigned>(word >> (8 * i)) & 0xFF,
                          static_cast<std::uint32_t>(8 * (b + i)),
                          fired + count);
    }
  }
  for (; b < nbytes; ++b) {
    count += pack_lanes(bits[b], static_cast<std::uint32_t>(8 * b),
                        fired + count);
  }
  return count;
}

// The scan of either kernel over a layout tiles_fit() accepts (or the
// identity); `group` applies that kernel's per-neuron rule at widths 8, 4
// and 1. Returns the fired count.
template <typename Group>
std::size_t scan_layout(std::size_t rows, std::size_t cols, const Group& group,
                        std::uint32_t* fired) {
  if (rows != 1) {
    alignas(32) std::uint8_t bits[kMaxTiledNeurons / 8];
    scan_tiles(rows, cols, bits, group);
    return pack_bitmap(bits, rows * cols, fired);
  }
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    count += pack_lanes(group.template run<8>(j),
                        static_cast<std::uint32_t>(j), fired + count);
  }
  for (; j < cols; ++j) {
    if (group.template run<1>(j) != 0) {
      fired[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

// ------------------------------------------------------ threshold scan ----

template <bool Subtract>
struct ThresholdGroup {
  float* u;
  float threshold;

  template <std::size_t W>
  unsigned run(std::size_t slot) const {
    float* p = u + slot;
    if constexpr (W == 8) {
      const __m256 th = _mm256_set1_ps(threshold);
      const __m256 v = _mm256_loadu_ps(p);
      const __m256 ge = _mm256_cmp_ps(v, th, _CMP_GE_OQ);
      if constexpr (Subtract) {
        _mm256_storeu_ps(p, _mm256_blendv_ps(v, _mm256_sub_ps(v, th), ge));
      }
      return static_cast<unsigned>(_mm256_movemask_ps(ge));
    } else if constexpr (W == 4) {
      const __m128 th = _mm_set1_ps(threshold);
      const __m128 v = _mm_loadu_ps(p);
      const __m128 ge = _mm_cmp_ps(v, th, _CMP_GE_OQ);
      if constexpr (Subtract) {
        _mm_storeu_ps(p, _mm_blendv_ps(v, _mm_sub_ps(v, th), ge));
      }
      return static_cast<unsigned>(_mm_movemask_ps(ge));
    } else {
      if (*p >= threshold) {
        if constexpr (Subtract) {
          *p -= threshold;
        }
        return 1;
      }
      return 0;
    }
  }
};

std::size_t av_threshold_fire(const ThresholdCtx& ctx) {
  if (ctx.rows != 1 && !tiles_fit(ctx.rows, ctx.cols)) {
    return sc_threshold_fire(ctx);
  }
  if (ctx.subtract) {
    return scan_layout(ctx.rows, ctx.cols,
                       ThresholdGroup<true>{ctx.u, ctx.threshold}, ctx.fired);
  }
  return scan_layout(ctx.rows, ctx.cols,
                     ThresholdGroup<false>{ctx.u, ctx.threshold}, ctx.fired);
}

// ---------------------------------------------------------- burst scan ----

// The quantum of a counter k is quanta[min(k, cap)]. The vector widths hold
// the cap + 1 rung ladder in one register (so caps up to 7) and read each
// lane's rung with a permute.
struct BurstGroup {
  float* u;
  std::uint32_t* k;
  const float* quanta;
  std::uint32_t cap;
  __m256 ladder;

  template <std::size_t W>
  unsigned run(std::size_t slot) const {
    float* up = u + slot;
    std::uint32_t* kp = k + slot;
    if constexpr (W == 8) {
      auto* kv = reinterpret_cast<__m256i*>(kp);
      const __m256i kk = _mm256_loadu_si256(kv);
      const __m256 q = _mm256_permutevar8x32_ps(
          ladder,
          _mm256_min_epu32(kk, _mm256_set1_epi32(static_cast<int>(cap))));
      const __m256 v = _mm256_loadu_ps(up);
      const __m256 ge = _mm256_cmp_ps(v, q, _CMP_GE_OQ);
      _mm256_storeu_ps(up, _mm256_blendv_ps(v, _mm256_sub_ps(v, q), ge));
      _mm256_storeu_si256(
          kv, _mm256_and_si256(_mm256_castps_si256(ge),
                               _mm256_add_epi32(kk, _mm256_set1_epi32(1))));
      return static_cast<unsigned>(_mm256_movemask_ps(ge));
    } else if constexpr (W == 4) {
      auto* kv = reinterpret_cast<__m128i*>(kp);
      const __m128i kk = _mm_loadu_si128(kv);
      const __m128i e =
          _mm_min_epu32(kk, _mm_set1_epi32(static_cast<int>(cap)));
      const __m128 q = _mm256_castps256_ps128(
          _mm256_permutevar8x32_ps(ladder, _mm256_zextsi128_si256(e)));
      const __m128 v = _mm_loadu_ps(up);
      const __m128 ge = _mm_cmp_ps(v, q, _CMP_GE_OQ);
      _mm_storeu_ps(up, _mm_blendv_ps(v, _mm_sub_ps(v, q), ge));
      _mm_storeu_si128(kv, _mm_and_si128(_mm_castps_si128(ge),
                                         _mm_add_epi32(kk, _mm_set1_epi32(1))));
      return static_cast<unsigned>(_mm_movemask_ps(ge));
    } else {
      const float quantum = quanta[std::min(*kp, cap)];
      if (*up >= quantum) {
        *up -= quantum;
        ++*kp;
        return 1;
      }
      *kp = 0;
      return 0;
    }
  }
};

std::size_t av_burst_fire(const BurstFireCtx& ctx) {
  if (ctx.cap >= 8 || (ctx.rows != 1 && !tiles_fit(ctx.rows, ctx.cols))) {
    return sc_burst_fire(ctx);
  }
  alignas(32) float rungs[8] = {};
  std::memcpy(rungs, ctx.quanta, (ctx.cap + 1) * sizeof(float));
  return scan_layout(
      ctx.rows, ctx.cols,
      BurstGroup{ctx.u, ctx.k, ctx.quanta, ctx.cap, _mm256_load_ps(rungs)},
      ctx.fired);
}

// ---------------------------------------------------------------- axpy ----

void av_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256 xv = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
  }
  for (; i < n; ++i) {
    y[i] += a * x[i];
  }
}

// -------------------------------------------------------- mask compact ----

// The keep-byte movemask indexes the LUT. In-place safe for dst <= src: the
// store at dst + k never passes the next load at src + i + 8.
std::size_t av_mask_compact(const std::uint32_t* src, const std::uint8_t* keep,
                            std::size_t n, std::uint32_t* dst) {
  const auto& lut = compact_lut();
  const __m128i zero = _mm_setzero_si128();
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i kb = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(keep + i));
    const int drop = _mm_movemask_epi8(_mm_cmpeq_epi8(kb, zero)) & 0xFF;
    const int mask = drop ^ 0xFF;
    const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(lut[mask].data())));
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k),
                        _mm256_permutevar8x32_epi32(v, lanes));
    k += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    if (keep[i] != 0) {
      dst[k++] = src[i];
    }
  }
  return k;
}

// -------------------------------------------------------- gauss shifts ----
//
// Box-Muller through hand-written single-precision polynomials, eight pairs
// per step, approximate-then-verify (the bounded-error design of vector
// math libraries such as SLEEF, https://sleef.org; none of its code). The
// range reductions run in double, where they are exact; everything after
// them runs in float, eight lanes wide:
//
//   ln u1  u1 = 2^e * m with m in [sqrt(1/2), sqrt(2)) -- u1 >= 1e-300 is a
//          normal double, so e and m come straight from its bits, and m - 1
//          is exact. In float, ln m = 2 atanh(s), s = (m - 1) / (m + 1),
//          |s| < 0.1716, summed through s^11 (the dropped tail is below
//          1e-9 of ln m), and ln u1 = e ln 2 + ln m.
//   theta  2 pi u2 is reduced by quadrant on u2 rounded to float (an
//          absolute error below 3e-8): q = round(4 u2) and f = u2 - q / 4
//          are exact, and x = 2 pi f lies in [-pi/4, pi/4]. sin x and cos x
//          are Taylor sums through x^9 and x^10; the dropped tails are below
//          2e-9.
//
// Error bound. Against the scalar leaf's v = sigma * (r * cos theta) (and
// likewise sin), the approximation v' obeys |v - v'| <= 2e-6 * sigma * r:
// the radius's error is relative (a few float ulps of ln u1, halved by the
// square root), the angle's and the polynomials' errors are absolute (a
// few float ulps of 1, the rounding of u2 included), and each product adds
// half an ulp. Every term
// scales with sigma * r, not with |v|, which is small near a zero of cos or
// sin while the angle error is not. A pair with either value within
// kGaussMargin * (1 + sigma * r) of a half-integer -- ten times the bound;
// the 1 covers the ulp the float fraction test itself may round away -- is
// recomputed with libm (sc_gauss_pair). Every other value rounds to the
// integer libm's would, so the shifts are exact. Since the margin grows
// with sigma * r, every value of magnitude 25000 or more is recomputed:
// floats that large hold no half-integers, and a limit that large need not
// be a float. A sigma too large for floats (> 1e30) takes the scalar leaf.

constexpr float kGaussMargin = 2e-5f;
constexpr double kGaussMaxSigma = 1e30;

// c0 + c1 y + ... + c5 y^5 (c5 = 0 for a quartic) in Estrin's form: three
// independent linear terms, then y^2 and y^4 -- a dependency chain of five
// operations instead of Horner's ten, which bounds this leaf's throughput.
inline __m256 poly5(__m256 y, float c0, float c1, float c2, float c3, float c4,
                    float c5) {
  const auto lin = [y](float a, float b) {
    return _mm256_add_ps(_mm256_set1_ps(a),
                         _mm256_mul_ps(_mm256_set1_ps(b), y));
  };
  const __m256 y2 = _mm256_mul_ps(y, y);
  const __m256 y4 = _mm256_mul_ps(y2, y2);
  return _mm256_add_ps(_mm256_add_ps(lin(c0, c1), _mm256_mul_ps(y2, lin(c2, c3))),
                       _mm256_mul_ps(y4, lin(c4, c5)));
}

// Lanes of v within `margin` of a half-integer (all-ones), else zero. The
// fraction v - floor(v) is exact, or off by an ulp of 1 for v in (-1, 0).
inline __m256 near_half(__m256 v, __m256 margin) {
  const __m256 frac = _mm256_sub_ps(v, _mm256_floor_ps(v));
  const __m256 d = _mm256_andnot_ps(_mm256_set1_ps(-0.0f),
                                    _mm256_sub_ps(frac, _mm256_set1_ps(0.5f)));
  return _mm256_cmp_ps(d, margin, _CMP_LE_OQ);
}

// round_shift of eight values whose distance from every half-integer
// exceeds the approximation error: clamp to +-limit, round to nearest
// (ties cannot occur, so nearest-even agrees with lround), truncate.
inline __m256i round_clamped(__m256 v, __m256 limit) {
  const __m256 c = _mm256_min_ps(
      _mm256_max_ps(v, _mm256_sub_ps(_mm256_setzero_ps(), limit)), limit);
  return _mm256_cvttps_epi32(
      _mm256_round_ps(c, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// The u1 and u2 of the four pairs at u[0..8), each in pair order.
inline void split_pairs(const double* u, __m256d& u1, __m256d& u2) {
  const __m256d a = _mm256_loadu_pd(u);
  const __m256d b = _mm256_loadu_pd(u + 4);
  u1 = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xD8);
  u2 = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xD8);
}

// The exact double range reduction of four u1 = 2^e * m (num = m - 1,
// den = m + 1, rounded to float afterwards), and the four u2 in float.
struct Reduced {
  __m128 num, den, e, u2;
};

inline Reduced reduce(__m256d u1, __m256d u2) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i bits = _mm256_castpd_si256(u1);
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FF0000000000000LL)));
  const __m256d high = _mm256_cmp_pd(m, _mm256_set1_pd(std::numbers::sqrt2),
                                     _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), high);
  // e = biased exponent - 1023 (+1 where m was halved), exact: the
  // exponent field ORed into 2^52's bits reads as 2^52 + field.
  const __m256d biased = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x4330000000000000LL)));
  const __m256d e = _mm256_add_pd(
      _mm256_sub_pd(biased, _mm256_set1_pd(0x1p52 + 1023.0)),
      _mm256_and_pd(high, one));
  return {_mm256_cvtpd_ps(_mm256_sub_pd(m, one)),
          _mm256_cvtpd_ps(_mm256_add_pd(m, one)), _mm256_cvtpd_ps(e),
          _mm256_cvtpd_ps(u2)};
}

inline __m256 join(__m128 lo, __m128 hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// The shifts of the eight pairs at u[0..16) into out[0..16). Returns the
// lane mask of pairs the caller must recompute with libm.
inline unsigned gauss_block(const double* u, __m256 sigma, __m256 limit,
                            std::int32_t* out) {
  __m256d u1a, u2a, u1b, u2b;
  split_pairs(u, u1a, u2a);
  split_pairs(u + 8, u1b, u2b);
  const Reduced ra = reduce(u1a, u2a);
  const Reduced rb = reduce(u1b, u2b);

  // r = sqrt(-2 ln u1).
  const __m256 s = _mm256_div_ps(join(ra.num, rb.num), join(ra.den, rb.den));
  const __m256 s2 = _mm256_mul_ps(s, s);
  const __m256 p =
      poly5(s2, 1.0f, 1.0f / 3, 1.0f / 5, 1.0f / 7, 1.0f / 9, 1.0f / 11);
  const __m256 ln_u1 = _mm256_add_ps(
      _mm256_mul_ps(join(ra.e, rb.e), _mm256_set1_ps(std::numbers::ln2_v<float>)),
      _mm256_mul_ps(_mm256_add_ps(s, s), p));
  const __m256 r = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0f), ln_u1));

  // sin and cos of x = 2 pi f, u2 = q / 4 + f.
  const __m256 u2 = join(ra.u2, rb.u2);
  const __m256 q = _mm256_round_ps(_mm256_mul_ps(u2, _mm256_set1_ps(4.0f)),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(u2, _mm256_mul_ps(q, _mm256_set1_ps(0.25f)));
  const __m256 x =
      _mm256_mul_ps(f, _mm256_set1_ps(2.0f * std::numbers::pi_v<float>));
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 sin_x = _mm256_mul_ps(
      x, poly5(x2, 1.0f, -1.0f / 6, 1.0f / 120, -1.0f / 5040, 1.0f / 362880,
               0.0f));
  const __m256 cos_x = poly5(x2, 1.0f, -1.0f / 2, 1.0f / 24, -1.0f / 720,
                             1.0f / 40320, -1.0f / 3628800);
  // theta = q pi/2 + x: odd quadrants swap sin and cos; cos theta is
  // negated in quadrants 1 and 2 (bit 1 of q + 1), sin theta in 2 and 3
  // (bit 1 of q). q = 4 is quadrant 0.
  const __m256i qi = _mm256_cvttps_epi32(q);
  const __m256 odd = _mm256_castsi256_ps(_mm256_slli_epi32(qi, 31));
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256 cos_sign = _mm256_castsi256_ps(_mm256_and_si256(
      _mm256_slli_epi32(_mm256_add_epi32(qi, _mm256_set1_epi32(1)), 30), sign));
  const __m256 sin_sign =
      _mm256_castsi256_ps(_mm256_and_si256(_mm256_slli_epi32(qi, 30), sign));
  const __m256 cos_t =
      _mm256_xor_ps(_mm256_blendv_ps(cos_x, sin_x, odd), cos_sign);
  const __m256 sin_t =
      _mm256_xor_ps(_mm256_blendv_ps(sin_x, cos_x, odd), sin_sign);

  const __m256 sr = _mm256_mul_ps(sigma, r);
  const __m256 vc = _mm256_mul_ps(sr, cos_t);
  const __m256 vs = _mm256_mul_ps(sr, sin_t);
  const __m256 margin = _mm256_mul_ps(
      _mm256_set1_ps(kGaussMargin), _mm256_add_ps(_mm256_set1_ps(1.0f), sr));
  const __m256i ic = round_clamped(vc, limit);
  const __m256i is = round_clamped(vs, limit);
  // Interleave (cos, sin) per pair back into pair order.
  const __m256i lo = _mm256_unpacklo_epi32(ic, is);  // pairs 0, 1 | 4, 5
  const __m256i hi = _mm256_unpackhi_epi32(ic, is);  // pairs 2, 3 | 6, 7
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
  return static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_or_ps(near_half(vc, margin), near_half(vs, margin))));
}

// Recomputes the flagged pairs of the block at pair `first` with libm.
inline void recompute_pairs(unsigned near, const GaussShiftCtx& ctx,
                            std::size_t first) {
  for (; near != 0; near &= near - 1) {
    const std::size_t i = first + static_cast<std::size_t>(__builtin_ctz(near));
    sc_gauss_pair(ctx.u[2 * i], ctx.u[2 * i + 1], ctx.sigma, ctx.limit,
                  ctx.out + 2 * i);
  }
}

void av_gauss_shifts(const GaussShiftCtx& ctx) {
  if (!(ctx.sigma <= kGaussMaxSigma)) {
    return sc_gauss_shifts(ctx);
  }
  const __m256 sigma = _mm256_set1_ps(static_cast<float>(ctx.sigma));
  const __m256 limit = _mm256_set1_ps(static_cast<float>(ctx.limit));
  std::size_t i = 0;
  for (; i + 8 <= ctx.pairs; i += 8) {
    recompute_pairs(gauss_block(ctx.u + 2 * i, sigma, limit, ctx.out + 2 * i),
                    ctx, i);
  }
  if (i < ctx.pairs) {
    // The last partial block runs padded with (1/2, 1/2) pairs; only the
    // real pairs' shifts and recomputes are kept.
    const std::size_t rest = ctx.pairs - i;
    alignas(32) double u[16];
    alignas(32) std::int32_t out[16];
    std::fill(u, u + 16, 0.5);
    std::memcpy(u, ctx.u + 2 * i, 2 * rest * sizeof(double));
    const unsigned near = gauss_block(u, sigma, limit, out);
    std::memcpy(ctx.out + 2 * i, out, 2 * rest * sizeof(std::int32_t));
    recompute_pairs(near & ((1u << rest) - 1), ctx, i);
  }
}

constexpr KernelDispatch avx2_table() {
  KernelDispatch t;
  t.isa = "avx2";
  t.features = cpu::kAvx2;
  t.dense_scatter = av_dense_scatter;
  t.conv_taps = av_conv_taps;
  t.threshold_fire = av_threshold_fire;
  t.burst_fire = av_burst_fire;
  t.axpy = av_axpy;
  t.mask_compact = av_mask_compact;
  t.gauss_shifts = av_gauss_shifts;
  return t;
}

}  // namespace

// constinit: the compiler rejects a run-time initializer, which would run
// at load on every host (see kernels_internal.h).
constinit const KernelDispatch kAvx2Table = avx2_table();

#if defined(TSNN_SIMD_AVX512)
// The avx2 table with the 512-bit conv_taps, threshold_fire and burst_fire
// leaves (kernels_avx512.cpp).
constinit const KernelDispatch kAvx512Table = [] {
  KernelDispatch t = avx2_table();
  t.isa = "avx512";
  t.features = cpu::kAvx2 | cpu::kAvx512;
  t.conv_taps = ax_conv_taps;
  t.threshold_fire = ax_threshold_fire;
  t.burst_fire = ax_burst_fire;
  return t;
}();
#endif

}  // namespace tsnn::simd

#endif  // TSNN_SIMD_AVX2 && __AVX2__
