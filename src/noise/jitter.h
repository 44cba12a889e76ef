// Spike jitter noise: each spike time is shifted by quantized Gaussian
// noise (paper SS III: zero mean, stddev sigma, rounded to integer steps).
#pragma once

#include <cstdint>

#include "common/aligned.h"
#include "snn/noise_base.h"

namespace tsnn::noise {

/// Per-spike Gaussian time jitter, clamped into the raster window so spike
/// *count* is preserved (only timing is corrupted).
class JitterNoise : public snn::NoiseModel {
 public:
  /// sigma must be finite and non-negative.
  explicit JitterNoise(double sigma);

  /// The per-call reference: one rng.normal(0, sigma) per spike,
  /// time-major, each rounded by simd::round_shift.
  snn::SpikeRaster apply(const snn::SpikeRaster& in, Rng& rng) const override;
  /// The same shifts drawn in one batch (draw_jitter_shifts), then one
  /// clamp-and-re-bucket pass (EventBuffer::shift_times).
  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override;

  double sigma() const { return sigma_; }

 private:
  double sigma_;
};

/// Writes round_shift(rng.normal(0, sigma), limit) for n consecutive
/// normal() calls to out[0..n), and leaves `rng` exactly as those calls
/// would -- the batched draw of Rng's contract, with the uniform pairs
/// turned into shifts by the kernel table's gauss_shifts. `uniforms` is
/// grow-only staging. n == 0 draws nothing.
void draw_jitter_shifts(Rng& rng, double sigma, std::int32_t limit,
                        std::size_t n, std::int32_t* out,
                        aligned_vector<double>& uniforms);

}  // namespace tsnn::noise
