// S-CIFAR10 / S-CIFAR20: synthetic stand-ins for CIFAR-10 and CIFAR-100.
//
// Each class is a deterministic combination of a texture family (stripes,
// checker, rings, blob constellation, plasma), texture parameters, and a
// color scheme, all derived from the class index and the dataset seed.
// Samples vary by texture phase/offset/orientation jitter, hue jitter, and
// pixel noise, so a CNN has to learn texture+color structure to classify.
#pragma once

#include <cstdint>

#include "data/dataset.h"

namespace tsnn::data {

/// Generation knobs for the CIFAR-like sets. The default jitter/noise
/// levels are tuned so a VGG-mini lands in the low-90s test accuracy --
/// comparable headroom to the paper's VGG16/CIFAR-10 setup, which keeps
/// the noise sweeps discriminative (a near-100% ceiling would compress
/// every robustness comparison).
struct CifarLikeConfig {
  std::size_t image_size = 16;
  std::size_t num_classes = 10;    ///< 10 for S-CIFAR10, 20 for S-CIFAR20
  std::size_t train_per_class = 150;
  std::size_t test_per_class = 30;
  double hue_jitter = 0.16;
  double pixel_noise = 0.14;
  std::uint64_t seed = 4321;
};

/// Generates a train/test pair of the configured CIFAR-like set, rendering
/// the samples `keep` names (all by default).
DatasetPair make_cifar_like(const CifarLikeConfig& config = {}, Keep keep = {});

/// Convenience: S-CIFAR10 with defaults (10 classes).
DatasetPair make_cifar10_like(std::uint64_t seed = 4321);

/// Convenience: S-CIFAR20 (20 classes, CIFAR-100 stand-in; see DESIGN.md).
DatasetPair make_cifar20_like(std::uint64_t seed = 9876);

}  // namespace tsnn::data
