#include "data/cifar_like.h"

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "data/synth.h"

namespace tsnn::data {

namespace {

/// Fixed per-class texture recipe derived from (class, dataset seed).
struct ClassRecipe {
  int family = 0;          ///< texture family index
  double param_a = 0.0;    ///< family-specific (frequency / cells / radius)
  double param_b = 0.0;    ///< family-specific (angle / center)
  double hue = 0.0;        ///< base hue in [0,1)
  double saturation = 0.7;
};

constexpr int kNumFamilies = 5;

ClassRecipe make_recipe(std::size_t cls, std::uint64_t seed) {
  Rng rng(seed * 0x9E37u + cls * 0x85EBu + 17u);
  ClassRecipe r;
  r.family = static_cast<int>(cls % kNumFamilies);
  // Classes sharing a family get distinct parameters from their own stream,
  // so family alone never determines the class.
  switch (r.family) {
    case 0:  // stripes: frequency and angle
      r.param_a = rng.uniform(2.0, 5.0);
      r.param_b = rng.uniform(0.0, std::numbers::pi);
      break;
    case 1:  // checker: cell count
      r.param_a = rng.uniform(2.5, 6.0);
      r.param_b = 0.0;
      break;
    case 2:  // rings: frequency and center offset
      r.param_a = rng.uniform(2.0, 5.0);
      r.param_b = rng.uniform(0.25, 0.75);
      break;
    case 3:  // blobs: radius
      r.param_a = rng.uniform(0.10, 0.22);
      r.param_b = rng.uniform(0.3, 0.7);
      break;
    default:  // plasma: base phases
      r.param_a = rng.uniform(0.0, 6.28);
      r.param_b = rng.uniform(0.0, 6.28);
      break;
  }
  r.hue = rng.uniform(0.0, 1.0);
  r.saturation = rng.uniform(0.55, 0.9);
  return r;
}

/// HSV -> RGB with h in [0,1), s,v in [0,1].
void hsv_to_rgb(double h, double s, double v, double& r, double& g, double& b) {
  h = h - std::floor(h);
  const double hh = h * 6.0;
  const int sector = static_cast<int>(hh) % 6;
  const double f = hh - std::floor(hh);
  const double p = v * (1.0 - s);
  const double q = v * (1.0 - s * f);
  const double t = v * (1.0 - s * (1.0 - f));
  switch (sector) {
    case 0: r = v; g = t; b = p; break;
    case 1: r = q; g = v; b = p; break;
    case 2: r = p; g = v; b = t; break;
    case 3: r = p; g = q; b = v; break;
    case 4: r = t; g = p; b = v; break;
    default: r = v; g = p; b = q; break;
  }
}

/// Every random draw of one sample: texture phase/offset/orientation and
/// hue jitter, and the stream its pixel noise starts from.
struct SampleDraws {
  std::size_t cls = 0;
  double jitter_phase = 0.0;
  double jitter_angle = 0.0;
  double ox = 0.0;
  double oy = 0.0;
  double cx = 0.0;
  double cy = 0.0;
  double hue = 0.0;
  double value_gain = 0.0;
  Rng noise;
};

SampleDraws draw_sample(std::size_t cls, const ClassRecipe& recipe,
                        const CifarLikeConfig& config, Rng& rng) {
  const std::size_t n = config.image_size;
  SampleDraws d;
  d.cls = cls;
  d.jitter_phase = rng.uniform(0.0, 6.28);
  d.jitter_angle = rng.normal(0.0, 0.12);
  d.ox = rng.uniform(0.0, 1.0);
  d.oy = rng.uniform(0.0, 1.0);
  d.cx = recipe.param_b + rng.normal(0.0, 0.05);
  d.cy = recipe.param_b + rng.normal(0.0, 0.05);
  d.hue = recipe.hue + rng.normal(0.0, config.hue_jitter);
  d.value_gain = rng.uniform(0.8, 1.0);
  d.noise = rng;
  skip_pixel_noise(3 * n * n, config.pixel_noise, rng);
  return d;
}

Tensor render_sample(const SampleDraws& d, const ClassRecipe& recipe,
                     const CifarLikeConfig& config) {
  const std::size_t n = config.image_size;
  Tensor img{Shape{3, n, n}};
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double u = (static_cast<double>(x) + 0.5) / static_cast<double>(n);
      const double v = (static_cast<double>(y) + 0.5) / static_cast<double>(n);
      double t = 0.0;
      switch (recipe.family) {
        case 0:
          t = field::stripes(u, v, recipe.param_b + d.jitter_angle,
                             recipe.param_a, d.jitter_phase);
          break;
        case 1:
          t = field::checker(u, v, recipe.param_a, d.ox, d.oy);
          break;
        case 2:
          t = field::rings(u, v, d.cx, d.cy, recipe.param_a, d.jitter_phase);
          break;
        case 3: {
          // Constellation of three blobs around the class center.
          const double b1 = field::blob(u, v, d.cx, d.cy, recipe.param_a);
          const double b2 = field::blob(u, v, d.cx + 0.3, d.cy - 0.2,
                                        recipe.param_a * 0.8);
          const double b3 = field::blob(u, v, d.cx - 0.25, d.cy + 0.3,
                                        recipe.param_a * 0.9);
          t = std::min(1.0, b1 + 0.8 * b2 + 0.7 * b3);
          break;
        }
        default:
          t = field::plasma(u + d.ox * 0.2, v + d.oy * 0.2, recipe.param_a,
                            recipe.param_b, d.jitter_phase);
          break;
      }
      // Texture modulates the value channel of the class color; a slight
      // hue rotation across the texture adds within-class color structure.
      double r = 0.0;
      double g = 0.0;
      double b = 0.0;
      hsv_to_rgb(d.hue + 0.12 * (t - 0.5), recipe.saturation,
                 d.value_gain * (0.25 + 0.75 * t), r, g, b);
      img(0, y, x) = static_cast<float>(r);
      img(1, y, x) = static_cast<float>(g);
      img(2, y, x) = static_cast<float>(b);
    }
  }
  Rng noise = d.noise;
  add_pixel_noise(img, config.pixel_noise, noise);
  return img;
}

Dataset generate(const CifarLikeConfig& config, std::size_t per_class,
                 const std::vector<ClassRecipe>& recipes, std::size_t keep,
                 Rng& rng) {
  const std::size_t n = config.image_size;
  return generate_split(
      config.num_classes, per_class, Shape{3, n, n}, keep, rng,
      [&](Rng& r, std::size_t cls) {
        return draw_sample(cls, recipes[cls], config, r);
      },
      [&](const SampleDraws& d) {
        return render_sample(d, recipes[d.cls], config);
      });
}

}  // namespace

DatasetPair make_cifar_like(const CifarLikeConfig& config, Keep keep) {
  TSNN_CHECK_MSG(config.num_classes > 1, "need at least 2 classes");
  TSNN_CHECK_MSG(config.image_size >= 8, "images must be at least 8px");
  std::vector<ClassRecipe> recipes;
  recipes.reserve(config.num_classes);
  for (std::size_t cls = 0; cls < config.num_classes; ++cls) {
    recipes.push_back(make_recipe(cls, config.seed));
  }
  Rng rng(config.seed ^ 0xABCDEF12u);
  DatasetPair pair;
  pair.train =
      generate(config, config.train_per_class, recipes, keep.train, rng);
  pair.test = generate(config, config.test_per_class, recipes, keep.test, rng);
  return pair;
}

DatasetPair make_cifar10_like(std::uint64_t seed) {
  CifarLikeConfig config;
  config.num_classes = 10;
  config.seed = seed;
  return make_cifar_like(config);
}

DatasetPair make_cifar20_like(std::uint64_t seed) {
  CifarLikeConfig config;
  config.num_classes = 20;
  config.seed = seed;
  return make_cifar_like(config);
}

}  // namespace tsnn::data
