// Procedural image synthesis primitives shared by the dataset generators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "tensor/tensor.h"

namespace tsnn::data {

/// Parameters of a 2-D affine sampling transform (image -> texture space).
struct Affine {
  double scale = 1.0;
  double rotation = 0.0;   ///< radians
  double shift_x = 0.0;    ///< pixels, applied in image space
  double shift_y = 0.0;
  double shear = 0.0;
};

/// Draws a random affine within "handwriting-like" variation bounds.
Affine random_affine(Rng& rng, double max_rotation, double max_shift,
                     double scale_lo, double scale_hi, double max_shear = 0.0);

/// Renders digit glyph `digit` into a {1,size,size} image through `tf`,
/// with stroke intensity `intensity`.
Tensor render_glyph(std::size_t digit, std::size_t size, const Affine& tf,
                    float intensity);

/// Adds iid Gaussian noise (stddev sigma) to every pixel, then clamps to [0,1].
void add_pixel_noise(Tensor& image, double sigma, Rng& rng);

/// Advances `rng` exactly as add_pixel_noise() would on an image of
/// `numel` pixels, without an image.
void skip_pixel_noise(std::size_t numel, double sigma, Rng& rng);

/// One split of `num_classes * per_class` samples, generated class-major
/// and served shuffled -- the recipe both generator families share.
/// `draw(rng, cls)` takes every random draw of one sample, in order, and
/// returns the record `render(record)` builds its image from without any
/// further draw; the order is then shuffled with `rng`, and only the first
/// `keep` samples of it are rendered. So skipping a sample costs its draws,
/// not its pixels, and a kept image never depends on how many are kept.
template <typename Draw, typename Render>
Dataset generate_split(std::size_t num_classes, std::size_t per_class,
                       const Shape& image_shape, std::size_t keep, Rng& rng,
                       Draw&& draw, Render&& render) {
  using Record = std::invoke_result_t<Draw&, Rng&, std::size_t>;
  std::vector<Record> records;
  records.reserve(num_classes * per_class);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      records.push_back(draw(rng, cls));
    }
  }
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  Dataset ds;
  ds.num_classes = num_classes;
  ds.image_shape = image_shape;
  const std::size_t kept = std::min(keep, order.size());
  ds.images.reserve(kept);
  ds.labels.reserve(kept);
  for (std::size_t k = 0; k < kept; ++k) {
    ds.images.push_back(render(records[order[k]]));
    ds.labels.push_back(order[k] / per_class);
  }
  return ds;
}

/// Clamps all values into [0,1].
void clamp01(Tensor& image);

/// Procedural scalar fields used to build CIFAR-like class textures. All
/// return values in [0,1] for pixel coordinates (x,y) in [0,1)^2.
namespace field {

/// Sinusoidal stripes at `angle` with spatial frequency `freq` and `phase`.
double stripes(double x, double y, double angle, double freq, double phase);

/// Checkerboard with `cells` cells per side and offset (ox, oy).
double checker(double x, double y, double cells, double ox, double oy);

/// Concentric rings around (cx, cy) with frequency `freq`.
double rings(double x, double y, double cx, double cy, double freq, double phase);

/// Soft radial blob centered at (cx, cy) with radius `r`.
double blob(double x, double y, double cx, double cy, double r);

/// Diagonal gradient oriented by `angle`.
double gradient(double x, double y, double angle);

/// Smooth pseudo-random plasma from low-frequency sinusoids with seed phases.
double plasma(double x, double y, double p0, double p1, double p2);

}  // namespace field

}  // namespace tsnn::data
