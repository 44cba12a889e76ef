#include "data/synth.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"
#include "data/glyphs.h"

namespace tsnn::data {

Affine random_affine(Rng& rng, double max_rotation, double max_shift,
                     double scale_lo, double scale_hi, double max_shear) {
  TSNN_CHECK_MSG(scale_lo > 0.0 && scale_hi >= scale_lo, "bad affine scale range");
  Affine tf;
  tf.rotation = rng.uniform(-max_rotation, max_rotation);
  tf.shift_x = rng.uniform(-max_shift, max_shift);
  tf.shift_y = rng.uniform(-max_shift, max_shift);
  tf.scale = rng.uniform(scale_lo, scale_hi);
  tf.shear = max_shear > 0.0 ? rng.uniform(-max_shear, max_shear) : 0.0;
  return tf;
}

Tensor render_glyph(std::size_t digit, std::size_t size, const Affine& tf,
                    float intensity) {
  TSNN_CHECK_MSG(size >= kGlyphSize, "target image smaller than glyph");
  Tensor image{Shape{1, size, size}};
  const double cos_r = std::cos(tf.rotation);
  const double sin_r = std::sin(tf.rotation);
  const double center = static_cast<double>(size) / 2.0;
  const double glyph_center = static_cast<double>(kGlyphSize) / 2.0;
  // Texture-space units per image pixel: the glyph spans ~70% of the image
  // at scale 1 so random shifts keep the digit inside the frame.
  const double base = static_cast<double>(kGlyphSize) /
                      (0.7 * static_cast<double>(size)) / tf.scale;
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      const double dx = (static_cast<double>(x) - center - tf.shift_x) * base;
      const double dy = (static_cast<double>(y) - center - tf.shift_y) * base;
      const double sheared_dx = dx + tf.shear * dy;
      const double u = cos_r * sheared_dx - sin_r * dy + glyph_center;
      const double v = sin_r * sheared_dx + cos_r * dy + glyph_center;
      image(0, y, x) = intensity * sample_glyph(digit, u, v);
    }
  }
  return image;
}

void add_pixel_noise(Tensor& image, double sigma, Rng& rng) {
  if (sigma <= 0.0) {
    return;
  }
  float* p = image.data();
  for (std::size_t i = 0; i < image.numel(); ++i) {
    p[i] += static_cast<float>(rng.normal(0.0, sigma));
  }
  clamp01(image);
}

void skip_pixel_noise(std::size_t numel, double sigma, Rng& rng) {
  if (sigma > 0.0) {
    rng.discard_normals(numel);
  }
}

void clamp01(Tensor& image) {
  float* p = image.data();
  for (std::size_t i = 0; i < image.numel(); ++i) {
    p[i] = std::clamp(p[i], 0.0f, 1.0f);
  }
}

namespace field {

namespace {
constexpr double kTau = 2.0 * std::numbers::pi;
}

double stripes(double x, double y, double angle, double freq, double phase) {
  const double t = x * std::cos(angle) + y * std::sin(angle);
  return 0.5 + 0.5 * std::sin(kTau * freq * t + phase);
}

double checker(double x, double y, double cells, double ox, double oy) {
  const auto cx = static_cast<std::int64_t>(std::floor((x + ox) * cells));
  const auto cy = static_cast<std::int64_t>(std::floor((y + oy) * cells));
  return ((cx + cy) & 1) == 0 ? 1.0 : 0.0;
}

double rings(double x, double y, double cx, double cy, double freq, double phase) {
  const double r = std::hypot(x - cx, y - cy);
  return 0.5 + 0.5 * std::cos(kTau * freq * r + phase);
}

double blob(double x, double y, double cx, double cy, double r) {
  TSNN_CHECK_MSG(r > 0.0, "blob radius must be positive");
  const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  return std::exp(-d2 / (2.0 * r * r));
}

double gradient(double x, double y, double angle) {
  const double t = x * std::cos(angle) + y * std::sin(angle);
  // Project onto [0,1]: t ranges over about [-1, 1.4] for the unit square.
  return std::clamp(0.5 + 0.5 * t, 0.0, 1.0);
}

double plasma(double x, double y, double p0, double p1, double p2) {
  const double v = std::sin(kTau * (1.3 * x + 0.7 * y) + p0) +
                   std::sin(kTau * (2.1 * x - 1.1 * y) + p1) +
                   std::sin(kTau * (0.6 * x + 2.4 * y) + p2);
  return 0.5 + v / 6.0;
}

}  // namespace field

}  // namespace tsnn::data
