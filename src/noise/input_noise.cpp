#include "noise/input_noise.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace tsnn::noise {

Tensor gaussian_input_noise(const Tensor& image, double sigma, Rng& rng) {
  Tensor out;
  GaussianInputNoise(sigma).apply_into(image, out, rng);
  return out;
}

Tensor salt_pepper_input_noise(const Tensor& image, double rate, Rng& rng) {
  Tensor out;
  SaltPepperInputNoise(rate).apply_into(image, out, rng);
  return out;
}

GaussianInputNoise::GaussianInputNoise(double sigma) : sigma_(sigma) {
  TSNN_CHECK_MSG(std::isfinite(sigma) && sigma >= 0.0,
                 "input noise sigma must be finite and non-negative, got "
                     << sigma);
}

void GaussianInputNoise::apply_into(const Tensor& in, Tensor& out,
                                    Rng& rng) const {
  out = in;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) {
    p[i] = std::clamp(p[i] + static_cast<float>(rng.normal(0.0, sigma_)),
                      0.0f, 1.0f);
  }
}

std::string GaussianInputNoise::name() const {
  return "input_gaussian(sigma=" + str::format_fixed(sigma_, 2) + ")";
}

SaltPepperInputNoise::SaltPepperInputNoise(double rate) : rate_(rate) {
  TSNN_CHECK_MSG(rate >= 0.0 && rate <= 1.0, "salt-pepper rate out of [0,1]");
}

void SaltPepperInputNoise::apply_into(const Tensor& in, Tensor& out,
                                      Rng& rng) const {
  out = in;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng.bernoulli(rate_)) {
      p[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    }
  }
}

std::string SaltPepperInputNoise::name() const {
  return "input_saltpepper(rate=" + str::format_fixed(rate_, 2) + ")";
}

CompositeInputNoise::CompositeInputNoise(std::vector<InputNoiseModelPtr> models)
    : models_(std::move(models)) {
  for (const auto& m : models_) {
    TSNN_CHECK_MSG(m != nullptr, "null input noise model in composite");
  }
}

void CompositeInputNoise::apply_into(const Tensor& in, Tensor& out,
                                     Rng& rng) const {
  if (models_.empty()) {
    out = in;
    return;
  }
  // Ping-pong through thread-local scratch so stacked application stays
  // safe on shared (const) models across evaluation threads and allocates
  // nothing once the scratch is warm.
  thread_local Tensor scratch;
  const Tensor* src = &in;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    Tensor& dst = (models_.size() - i) % 2 == 1 ? out : scratch;
    models_[i]->apply_into(*src, dst, rng);
    src = &dst;
  }
}

std::string CompositeInputNoise::name() const {
  std::string out = "composite[";
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (i > 0) {
      out += " + ";
    }
    out += models_[i]->name();
  }
  out += "]";
  return out;
}

}  // namespace tsnn::noise
