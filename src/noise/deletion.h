// Spike deletion noise: each spike is independently dropped with
// probability p (paper SS III, uniform random variable against p).
#pragma once

#include "snn/noise_base.h"

namespace tsnn::noise {

/// Bernoulli per-spike deletion.
class DeletionNoise : public snn::NoiseModel {
 public:
  explicit DeletionNoise(double p);

  snn::SpikeRaster apply(const snn::SpikeRaster& in, Rng& rng) const override;
  /// In-place stream compaction: one Bernoulli draw per event, time-major,
  /// drawn as one batch (Rng::keep_mask).
  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override;

  double probability() const { return p_; }

 private:
  double p_;
};

}  // namespace tsnn::noise
