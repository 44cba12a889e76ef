// In-memory labeled image dataset.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace tsnn::data {

/// A classification dataset: parallel image/label vectors.
///
/// Images are {c,h,w} float tensors with values in [0,1]; labels index
/// classes in [0, num_classes).
struct Dataset {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  std::size_t num_classes = 0;
  Shape image_shape;

  std::size_t size() const { return images.size(); }
  bool empty() const { return images.empty(); }

  /// Validates internal consistency; throws on violation.
  void check_valid() const;

  /// Returns the first `n` samples (or all if n >= size) as a new dataset.
  Dataset head(std::size_t n) const;

  /// Splits off the last `frac` fraction as a second dataset (e.g. for a
  /// validation split). `frac` in (0,1).
  std::pair<Dataset, Dataset> split(double frac) const;

  /// Per-class sample counts.
  std::vector<std::size_t> class_counts() const;
};

/// Train/test pair produced by the generators.
struct DatasetPair {
  Dataset train;
  Dataset test;
};

/// How many samples of each split a generator renders: the first `train`
/// and the first `test` of the split's served (shuffled) order, all of them
/// by default. The counts change which images exist, never their pixels: a
/// skipped sample still takes its random draws, so a kept prefix equals the
/// same prefix of the full split, image for image.
struct Keep {
  static constexpr std::size_t kAll = static_cast<std::size_t>(-1);
  std::size_t train = kAll;
  std::size_t test = kAll;
};

}  // namespace tsnn::data
