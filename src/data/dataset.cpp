#include "data/dataset.h"

#include <algorithm>

#include "common/error.h"

namespace tsnn::data {

void Dataset::check_valid() const {
  TSNN_CHECK_MSG(images.size() == labels.size(), "images/labels size mismatch");
  TSNN_CHECK_MSG(num_classes > 0, "dataset has no classes");
  for (std::size_t i = 0; i < images.size(); ++i) {
    TSNN_CHECK_SHAPE(images[i].shape() == image_shape,
                     "image " << i << " shape " << shape_to_string(images[i].shape())
                              << " expected " << shape_to_string(image_shape));
    TSNN_CHECK_MSG(labels[i] < num_classes,
                   "label " << labels[i] << " out of range " << num_classes);
  }
}

Dataset Dataset::head(std::size_t n) const {
  Dataset out;
  out.num_classes = num_classes;
  out.image_shape = image_shape;
  const std::size_t take = std::min(n, images.size());
  out.images.assign(images.begin(), images.begin() + static_cast<std::ptrdiff_t>(take));
  out.labels.assign(labels.begin(), labels.begin() + static_cast<std::ptrdiff_t>(take));
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double frac) const {
  TSNN_CHECK_MSG(frac > 0.0 && frac < 1.0, "split fraction out of (0,1): " << frac);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(images.size()) * (1.0 - frac));
  Dataset first = head(cut);
  Dataset second;
  second.num_classes = num_classes;
  second.image_shape = image_shape;
  second.images.assign(images.begin() + static_cast<std::ptrdiff_t>(cut), images.end());
  second.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(cut), labels.end());
  return {std::move(first), std::move(second)};
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(num_classes, 0);
  for (const std::size_t l : labels) {
    if (l < num_classes) {
      ++counts[l];
    }
  }
  return counts;
}

}  // namespace tsnn::data
