#include "noise/jitter.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/string_util.h"
#include "simd/kernels.h"

namespace tsnn::noise {

JitterNoise::JitterNoise(double sigma) : sigma_(sigma) {
  TSNN_CHECK_MSG(std::isfinite(sigma_) && sigma_ >= 0.0,
                 "jitter sigma must be finite and non-negative, got "
                     << sigma_);
}

snn::SpikeRaster JitterNoise::apply(const snn::SpikeRaster& in, Rng& rng) const {
  if (sigma_ == 0.0) {
    return in;
  }
  snn::SpikeRaster out(in.num_neurons(), in.window());
  const auto last = static_cast<std::int64_t>(in.window()) - 1;
  for (std::size_t t = 0; t < in.window(); ++t) {
    for (const std::uint32_t neuron : in.at(t)) {
      const std::int32_t shift = simd::round_shift(
          rng.normal(0.0, sigma_), static_cast<std::int32_t>(last));
      const std::int64_t shifted =
          std::clamp<std::int64_t>(static_cast<std::int64_t>(t) + shift, 0, last);
      out.add(static_cast<std::size_t>(shifted), neuron);
    }
  }
  return out;
}

void JitterNoise::apply_inplace(snn::EventBuffer& events,
                                snn::EventSortScratch& scratch,
                                Rng& rng) const {
  const std::size_t n = events.size();
  if (sigma_ == 0.0 || n == 0) {
    return;
  }
  // Same draws as apply(), in the same order; the stable re-bucket
  // reproduces the raster path's within-step ordering (draw order ==
  // insertion order).
  if (scratch.shifts.size() < n) {
    scratch.shifts.resize(n);
  }
  draw_jitter_shifts(rng, sigma_, static_cast<std::int32_t>(events.window() - 1),
                     n, scratch.shifts.data(), scratch.uniforms);
  events.shift_times(scratch.shifts.data(), scratch);
}

std::string JitterNoise::name() const {
  return "jitter(sigma=" + str::format_fixed(sigma_, 2) + ")";
}

void draw_jitter_shifts(Rng& rng, double sigma, std::int32_t limit,
                        std::size_t n, std::int32_t* out,
                        aligned_vector<double>& uniforms) {
  if (n == 0) {
    return;
  }
  std::size_t done = 0;
  double cached = 0.0;
  if (rng.take_cached_normal(cached)) {
    out[done++] = simd::round_shift(0.0 + sigma * cached, limit);
  }
  const std::size_t pairs = (n - done) / 2;
  if (uniforms.size() < 2 * pairs) {
    uniforms.resize(2 * pairs);
  }
  rng.uniform_pairs(pairs, uniforms.data());
  simd::GaussShiftCtx ctx;
  ctx.u = uniforms.data();
  ctx.pairs = pairs;
  ctx.sigma = sigma;
  ctx.limit = limit;
  ctx.out = out + done;
  simd::kernels().gauss_shifts(ctx);
  done += 2 * pairs;
  if (done < n) {
    // A normal() call, not a half-used pair: it caches the exact libm sine.
    out[done] = simd::round_shift(rng.normal(0.0, sigma), limit);
  }
}

}  // namespace tsnn::noise
