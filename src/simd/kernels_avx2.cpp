// AVX2 kernel variants. Compiled with -mavx2 -ffp-contract=off (the only TU
// in the tree with vector ISA flags); dispatch only ever selects this table
// when cpu::allowed_features() includes the bit, so no AVX2 instruction
// executes on a host without it.
//
// Bit-exactness discipline (see simd/kernels.h): every kernel here except
// dense_matvec vectorizes across the fan-out dimension j -- independent
// destination slots -- so each slot still receives its contributions in
// batch order, as one mul and one add, and -ffp-contract=off keeps the
// compiler from contracting the scalar tails.
#include "simd/kernels_internal.h"

#if defined(TSNN_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <array>

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
  std::size_t i = 0;
  for (; i + 4 <= ctx.count; i += 4) {
    const float* c0 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 0]) * out;
    const float* c1 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 1]) * out;
    const float* c2 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 2]) * out;
    const float* c3 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 3]) * out;
    const __m256 m0 = _mm256_set1_ps(ctx.mag[i + 0]);
    const __m256 m1 = _mm256_set1_ps(ctx.mag[i + 1]);
    const __m256 m2 = _mm256_set1_ps(ctx.mag[i + 2]);
    const __m256 m3 = _mm256_set1_ps(ctx.mag[i + 3]);
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
      u += ctx.mag[i + 0] * c0[j];
      u += ctx.mag[i + 1] * c1[j];
      u += ctx.mag[i + 2] * c2[j];
      u += ctx.mag[i + 3] * c3[j];
      ctx.u[j] = u;
    }
  }
  for (; i < ctx.count; ++i) {
    const float* col = ctx.wt + static_cast<std::size_t>(ctx.pre[i]) * out;
    const __m256 m = _mm256_set1_ps(ctx.mag[i]);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8) {
      const __m256 u = _mm256_loadu_ps(ctx.u + j);
      const __m256 w = _mm256_loadu_ps(col + j);
      _mm256_storeu_ps(ctx.u + j, _mm256_add_ps(u, _mm256_mul_ps(m, w)));
    }
    for (; j < out; ++j) {
      ctx.u[j] += ctx.mag[i] * col[j];
    }
  }
}

// -------------------------------------------------------- dense matvec ----

float hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Tolerance path: the dot product is reduced 8 lanes at a time, a different
// summation order than the scalar reference. Separate mul and add: FMA
// measured slower here (the only kernel it could apply to).
void av_dense_matvec(const DenseMatvecCtx& ctx) {
  for (std::size_t j = 0; j < ctx.out; ++j) {
    const float* row = ctx.w + j * ctx.in;
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= ctx.in; i += 8) {
      const __m256 w = _mm256_loadu_ps(row + i);
      const __m256 x = _mm256_loadu_ps(ctx.x + i);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(w, x));
    }
    float tail = 0.0f;
    for (; i < ctx.in; ++i) {
      tail += row[i] * ctx.x[i];
    }
    ctx.y[j] += hsum(acc) + tail;
  }
}

// ----------------------------------------------------------- conv taps ----

void av_conv_taps(const ConvTapCtx& ctx) {
  const std::size_t oc = ctx.oc;
  for (std::size_t i = 0; i < ctx.count; ++i) {
    const std::size_t pre = ctx.pre[i];
    const std::size_t ic = pre / ctx.in_hw;
    const std::size_t sp = pre % ctx.in_hw;
    const __m256 mv = _mm256_set1_ps(ctx.mag[i]);
    const float m = ctx.mag[i];
    const float* wbase = ctx.wt + ic * ctx.k2 * oc;
    const std::uint32_t end = ctx.tap_offset[sp + 1];
    for (std::uint32_t t = ctx.tap_offset[sp]; t < end; ++t) {
      const ConvTap tap = ctx.taps[t];
      float* urow = ctx.u + static_cast<std::size_t>(tap.spatial) * oc;
      const float* wrow = wbase + static_cast<std::size_t>(tap.wofs) * oc;
      std::size_t c = 0;
      for (; c + 8 <= oc; c += 8) {
        const __m256 u = _mm256_loadu_ps(urow + c);
        const __m256 w = _mm256_loadu_ps(wrow + c);
        _mm256_storeu_ps(urow + c, _mm256_add_ps(u, _mm256_mul_ps(mv, w)));
      }
      for (; c < oc; ++c) {
        urow[c] += m * wrow[c];
      }
    }
  }
}

// ------------------------------------------------------ threshold scan ----

// Eight neurons are compared per iteration; fired lanes are then visited in
// ascending order via the movemask, so the fired list and the subtract side
// effects match the canonical scan exactly. Lanes are independent (each
// neuron's potential is read and written once), so the vector compare
// cannot observe a stale value.
std::size_t av_threshold_fire(const ThresholdCtx& ctx) {
  const __m256 th = _mm256_set1_ps(ctx.threshold);
  std::size_t fired = 0;
  std::size_t j = 0;
  if (ctx.umap == nullptr) {
    for (; j + 8 <= ctx.n; j += 8) {
      const __m256 v = _mm256_loadu_ps(ctx.u + j);
      int mask = _mm256_movemask_ps(_mm256_cmp_ps(v, th, _CMP_GE_OQ));
      while (mask != 0) {
        const int b = __builtin_ctz(static_cast<unsigned>(mask));
        mask &= mask - 1;
        const std::size_t idx = j + static_cast<std::size_t>(b);
        if (ctx.subtract) {
          ctx.u[idx] -= ctx.threshold;
        }
        ctx.fired[fired++] = static_cast<std::uint32_t>(idx);
      }
    }
  } else {
    for (; j + 8 <= ctx.n; j += 8) {
      const __m256i idxv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ctx.umap + j));
      const __m256 v = _mm256_i32gather_ps(ctx.u, idxv, 4);
      int mask = _mm256_movemask_ps(_mm256_cmp_ps(v, th, _CMP_GE_OQ));
      while (mask != 0) {
        const int b = __builtin_ctz(static_cast<unsigned>(mask));
        mask &= mask - 1;
        const std::size_t pos = j + static_cast<std::size_t>(b);
        if (ctx.subtract) {
          ctx.u[ctx.umap[pos]] -= ctx.threshold;
        }
        ctx.fired[fired++] = static_cast<std::uint32_t>(pos);
      }
    }
  }
  for (; j < ctx.n; ++j) {
    const std::size_t idx = ctx.umap == nullptr ? j : ctx.umap[j];
    const float v = ctx.u[idx];
    if (v >= ctx.threshold) {
      if (ctx.subtract) {
        ctx.u[idx] = v - ctx.threshold;
      }
      ctx.fired[fired++] = static_cast<std::uint32_t>(j);
    }
  }
  return fired;
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

// Left-pack via a 256-entry permutation LUT: the keep-byte movemask indexes
// the lane order that gathers surviving elements to the front, and the
// whole 8-lane block is stored at dst + k (popcount advances k, the extra
// lanes are overwritten by the next block). In-place safe for dst <= src:
// the store at dst + k never passes the next load at src + i + 8.
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

}  // namespace

const KernelDispatch kAvx2Table = [] {
  KernelDispatch t;
  t.isa = "avx2";
  t.features = cpu::kAvx2;
  t.dense_scatter = av_dense_scatter;
  t.dense_matvec = av_dense_matvec;
  t.conv_taps = av_conv_taps;
  t.threshold_fire = av_threshold_fire;
  // No vector burst_fire: an eight-lane gather leaf did not clearly beat
  // the scalar scan end to end (docs/ARCHITECTURE.md, SIMD kernel layer).
  t.burst_fire = sc_burst_fire;
  t.axpy = av_axpy;
  t.mask_compact = av_mask_compact;
  return t;
}();

}  // namespace tsnn::simd

#endif  // TSNN_SIMD_AVX2 && __AVX2__
