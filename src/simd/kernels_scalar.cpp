// Scalar reference kernels: the semantics every vector variant must match
// bit for bit (see simd/kernels.h). These are the historical inner loops of
// topology.cpp / the coding schemes, lifted verbatim; this TU is compiled
// with -ffp-contract=off so the reference stays plain mul+add under any
// optimization flags.
#include "simd/kernels_internal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace tsnn::simd {

void sc_dense_scatter(const DenseScatterCtx& ctx) {
  for (std::size_t i = 0; i < ctx.count; ++i) {
    const float* col = ctx.wt + static_cast<std::size_t>(ctx.pre[i]) * ctx.out;
    const float m = ctx.mag[i * ctx.mag_stride];
    for (std::size_t j = 0; j < ctx.out; ++j) {
      ctx.u[j] += m * col[j];
    }
  }
}

void sc_conv_taps(const ConvTapCtx& ctx) {
  for (std::size_t i = 0; i < ctx.count; ++i) {
    const std::size_t pre = ctx.pre[i];
    const std::size_t ic = pre / ctx.in_hw;
    const std::size_t sp = pre % ctx.in_hw;
    const float m = ctx.mag[i * ctx.mag_stride];
    const float* wbase = ctx.wt + ic * ctx.k2 * ctx.oc;
    const std::uint32_t end = ctx.tap_offset[sp + 1];
    for (std::uint32_t t = ctx.tap_offset[sp]; t < end; ++t) {
      const ConvTap tap = ctx.taps[t];
      float* urow = ctx.u + static_cast<std::size_t>(tap.spatial) * ctx.oc;
      const float* wrow = wbase + static_cast<std::size_t>(tap.wofs) * ctx.oc;
      for (std::size_t c = 0; c < ctx.oc; ++c) {
        urow[c] += m * wrow[c];
      }
    }
  }
}

// Both fire scans walk the layout arithmetically: canonical j = c*cols + s
// ascending, potential (and burst counter) at slot s*rows + c.
std::size_t sc_threshold_fire(const ThresholdCtx& ctx) {
  std::size_t fired = 0;
  std::uint32_t j = 0;
  for (std::size_t c = 0; c < ctx.rows; ++c) {
    for (std::size_t s = 0; s < ctx.cols; ++s, ++j) {
      float& v = ctx.u[s * ctx.rows + c];
      if (v >= ctx.threshold) {
        if (ctx.subtract) {
          v -= ctx.threshold;
        }
        ctx.fired[fired++] = j;
      }
    }
  }
  return fired;
}

std::size_t sc_burst_fire(const BurstFireCtx& ctx) {
  std::size_t fired = 0;
  std::uint32_t j = 0;
  for (std::size_t c = 0; c < ctx.rows; ++c) {
    for (std::size_t s = 0; s < ctx.cols; ++s, ++j) {
      const std::size_t slot = s * ctx.rows + c;
      const float quantum = ctx.quanta[std::min(ctx.k[slot], ctx.cap)];
      float& v = ctx.u[slot];
      if (v >= quantum) {
        v -= quantum;
        ++ctx.k[slot];
        ctx.fired[fired++] = j;
      } else {
        ctx.k[slot] = 0;
      }
    }
  }
  return fired;
}

void sc_axpy(float* y, const float* x, float a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

std::size_t sc_mask_compact(const std::uint32_t* src, const std::uint8_t* keep,
                            std::size_t n, std::uint32_t* dst) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i] != 0) {
      dst[k++] = src[i];
    }
  }
  return k;
}

// Rng::normal's Box-Muller expressions, verbatim, followed by
// Rng::normal(0.0, sigma)'s scaling.
void sc_gauss_pair(double u1, double u2, double sigma, std::int32_t limit,
                   std::int32_t* out) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  out[0] = round_shift(0.0 + sigma * (radius * std::cos(theta)), limit);
  out[1] = round_shift(0.0 + sigma * (radius * std::sin(theta)), limit);
}

void sc_gauss_shifts(const GaussShiftCtx& ctx) {
  for (std::size_t i = 0; i < ctx.pairs; ++i) {
    sc_gauss_pair(ctx.u[2 * i], ctx.u[2 * i + 1], ctx.sigma, ctx.limit,
                  ctx.out + 2 * i);
  }
}

constinit const KernelDispatch kScalarTable = [] {
  KernelDispatch t;
  t.isa = "scalar";
  t.features = 0;
  t.dense_scatter = sc_dense_scatter;
  t.conv_taps = sc_conv_taps;
  t.threshold_fire = sc_threshold_fire;
  t.burst_fire = sc_burst_fire;
  t.axpy = sc_axpy;
  t.mask_compact = sc_mask_compact;
  t.gauss_shifts = sc_gauss_shifts;
  return t;
}();

}  // namespace tsnn::simd
