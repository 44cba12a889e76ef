// S-MNIST: the synthetic stand-in for MNIST (see DESIGN.md substitutions).
//
// 16x16 single-channel digit images: a fixed glyph per class, sampled
// through random affine jitter with pixel noise, so class identity is a
// shape property a CNN must learn, not a trivial template match.
#pragma once

#include <cstdint>

#include "data/dataset.h"

namespace tsnn::data {

/// Generation knobs for S-MNIST.
struct MnistLikeConfig {
  std::size_t image_size = 16;
  std::size_t train_per_class = 150;
  std::size_t test_per_class = 30;
  double max_rotation = 0.35;    ///< radians
  double max_shift = 1.6;        ///< pixels
  double scale_lo = 0.85;
  double scale_hi = 1.15;
  double pixel_noise = 0.08;
  std::uint64_t seed = 1234;
};

/// Generates a train/test pair of S-MNIST, rendering the samples `keep`
/// names (all by default).
DatasetPair make_mnist_like(const MnistLikeConfig& config = {}, Keep keep = {});

}  // namespace tsnn::data
