#include "data/mnist_like.h"

#include "common/error.h"
#include "data/glyphs.h"
#include "data/synth.h"

namespace tsnn::data {

namespace {

/// Every random draw of one S-MNIST sample: its affine, its stroke
/// intensity, and the stream its pixel noise starts from.
struct GlyphDraws {
  std::size_t digit = 0;
  Affine tf;
  float intensity = 1.0f;
  Rng noise;
};

Dataset generate(const MnistLikeConfig& config, std::size_t per_class,
                 std::size_t keep, Rng& rng) {
  const std::size_t size = config.image_size;
  const auto draw = [&](Rng& r, std::size_t digit) {
    GlyphDraws d;
    d.digit = digit;
    d.tf = random_affine(r, config.max_rotation, config.max_shift,
                         config.scale_lo, config.scale_hi,
                         /*max_shear=*/0.15);
    d.intensity = static_cast<float>(r.uniform(0.75, 1.0));
    d.noise = r;
    skip_pixel_noise(size * size, config.pixel_noise, r);
    return d;
  };
  const auto render = [&](const GlyphDraws& d) {
    Tensor img = render_glyph(d.digit, size, d.tf, d.intensity);
    Rng noise = d.noise;
    add_pixel_noise(img, config.pixel_noise, noise);
    return img;
  };
  return generate_split(kNumGlyphs, per_class, Shape{1, size, size}, keep, rng,
                        draw, render);
}

}  // namespace

DatasetPair make_mnist_like(const MnistLikeConfig& config, Keep keep) {
  TSNN_CHECK_MSG(config.image_size >= 12, "S-MNIST images must be at least 12px");
  Rng rng(config.seed);
  DatasetPair pair;
  pair.train = generate(config, config.train_per_class, keep.train, rng);
  pair.test = generate(config, config.test_per_class, keep.test, rng);
  return pair;
}

}  // namespace tsnn::data
