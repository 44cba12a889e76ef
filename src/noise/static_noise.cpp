#include "noise/static_noise.h"

#include <cmath>

#include "common/error.h"

namespace tsnn::noise {

snn::SnnModel with_static_noise(const snn::SnnModel& model,
                                const StaticNoiseConfig& config) {
  TSNN_CHECK_MSG(std::isfinite(config.weight_sigma) && config.weight_sigma >= 0.0,
                 "weight sigma must be finite and non-negative");
  TSNN_CHECK_MSG(config.stuck_at_zero >= 0.0 && config.stuck_at_zero <= 1.0,
                 "stuck-at-zero fraction out of [0,1]");
  snn::SnnModel noisy = model.clone();
  Rng rng(config.seed);
  for (std::size_t s = 0; s < noisy.num_stages(); ++s) {
    noisy.stage(s).synapse->map_weights([&](float w) {
      if (config.stuck_at_zero > 0.0 && rng.bernoulli(config.stuck_at_zero)) {
        return 0.0f;
      }
      if (config.weight_sigma > 0.0) {
        return static_cast<float>(w * (1.0 + rng.normal(0.0, config.weight_sigma)));
      }
      return w;
    });
  }
  return noisy;
}

snn::CodingParams with_threshold_noise(const snn::CodingParams& params,
                                       double sigma, Rng& rng) {
  TSNN_CHECK_MSG(std::isfinite(sigma) && sigma >= 0.0,
                 "threshold sigma must be finite and non-negative");
  snn::CodingParams out = params;
  const double factor = 1.0 + rng.normal(0.0, sigma);
  out.threshold = static_cast<float>(params.threshold * std::max(factor, 0.05));
  return out;
}

}  // namespace tsnn::noise
