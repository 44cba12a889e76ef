// Tests for the synthetic dataset generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.h"
#include "data/cifar_like.h"
#include "data/glyphs.h"
#include "data/mnist_like.h"
#include "data/synth.h"
#include "tensor/tensor_ops.h"

namespace tsnn::data {
namespace {

MnistLikeConfig small_mnist_config() {
  MnistLikeConfig cfg;
  cfg.train_per_class = 8;
  cfg.test_per_class = 4;
  return cfg;
}

CifarLikeConfig small_cifar_config(std::size_t classes) {
  CifarLikeConfig cfg;
  cfg.num_classes = classes;
  cfg.train_per_class = 8;
  cfg.test_per_class = 4;
  return cfg;
}

TEST(Glyphs, AllDigitsNonEmptyAndDistinct) {
  for (std::size_t d = 0; d < kNumGlyphs; ++d) {
    double mass = 0.0;
    for (const float v : glyph(d)) {
      mass += v;
    }
    EXPECT_GT(mass, 5.0) << "digit " << d;
  }
  for (std::size_t a = 0; a < kNumGlyphs; ++a) {
    for (std::size_t b = a + 1; b < kNumGlyphs; ++b) {
      EXPECT_NE(glyph(a), glyph(b)) << a << " vs " << b;
    }
  }
  EXPECT_THROW(glyph(10), InvalidArgument);
}

TEST(Glyphs, BilinearSamplingInterpolates) {
  // Sampling at a pixel center reproduces the bitmap value; outside is 0.
  const auto& g = glyph(1);
  EXPECT_FLOAT_EQ(sample_glyph(1, 2.5, 0.5), g[0 * kGlyphSize + 2]);
  EXPECT_FLOAT_EQ(sample_glyph(1, -3.0, 1.0), 0.0f);
  EXPECT_FLOAT_EQ(sample_glyph(1, 100.0, 1.0), 0.0f);
}

TEST(Synth, RenderGlyphRespectsIntensityAndRange) {
  Affine tf;
  const Tensor img = render_glyph(3, 16, tf, 0.8f);
  EXPECT_EQ(img.shape(), (Shape{1, 16, 16}));
  EXPECT_LE(ops::max_value(img), 0.8f + 1e-5f);
  EXPECT_GE(ops::min_value(img), 0.0f);
  EXPECT_GT(ops::sum(img), 5.0);  // the digit is actually drawn
}

TEST(Synth, AffineShiftMovesMass) {
  Affine left;
  left.shift_x = -3.0;
  Affine right;
  right.shift_x = 3.0;
  const Tensor a = render_glyph(1, 16, left, 1.0f);
  const Tensor b = render_glyph(1, 16, right, 1.0f);
  // Center of mass in x should differ clearly.
  auto com_x = [](const Tensor& img) {
    double m = 0.0;
    double mx = 0.0;
    for (std::size_t y = 0; y < 16; ++y) {
      for (std::size_t x = 0; x < 16; ++x) {
        m += img(0, y, x);
        mx += img(0, y, x) * static_cast<double>(x);
      }
    }
    return mx / m;
  };
  EXPECT_LT(com_x(a) + 3.0, com_x(b));
}

TEST(Synth, PixelNoiseClampsToUnitRange) {
  Tensor img{Shape{1, 8, 8}, 0.5f};
  Rng rng(1);
  add_pixel_noise(img, 1.0, rng);
  EXPECT_LE(ops::max_value(img), 1.0f);
  EXPECT_GE(ops::min_value(img), 0.0f);
  // With huge sigma some pixels must have moved.
  EXPECT_GT(ops::mean_abs_diff(img, Tensor{Shape{1, 8, 8}, 0.5f}), 0.1);
}

TEST(Synth, FieldsStayInUnitRange) {
  for (double x = 0.05; x < 1.0; x += 0.3) {
    for (double y = 0.05; y < 1.0; y += 0.3) {
      EXPECT_GE(field::stripes(x, y, 0.5, 3.0, 0.2), 0.0);
      EXPECT_LE(field::stripes(x, y, 0.5, 3.0, 0.2), 1.0);
      EXPECT_GE(field::rings(x, y, 0.5, 0.5, 3.0, 0.0), 0.0);
      EXPECT_LE(field::rings(x, y, 0.5, 0.5, 3.0, 0.0), 1.0);
      EXPECT_GE(field::blob(x, y, 0.5, 0.5, 0.2), 0.0);
      EXPECT_LE(field::blob(x, y, 0.5, 0.5, 0.2), 1.0);
      EXPECT_GE(field::plasma(x, y, 1.0, 2.0, 3.0), 0.0);
      EXPECT_LE(field::plasma(x, y, 1.0, 2.0, 3.0), 1.0);
      const double c = field::checker(x, y, 4.0, 0.0, 0.0);
      EXPECT_TRUE(c == 0.0 || c == 1.0);
    }
  }
}

TEST(MnistLike, GeneratesValidBalancedDataset) {
  const DatasetPair pair = make_mnist_like(small_mnist_config());
  pair.train.check_valid();
  pair.test.check_valid();
  EXPECT_EQ(pair.train.size(), 80u);
  EXPECT_EQ(pair.test.size(), 40u);
  EXPECT_EQ(pair.train.num_classes, 10u);
  for (const std::size_t c : pair.train.class_counts()) {
    EXPECT_EQ(c, 8u);
  }
}

TEST(MnistLike, DeterministicForSeed) {
  const DatasetPair a = make_mnist_like(small_mnist_config());
  const DatasetPair b = make_mnist_like(small_mnist_config());
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train.images[0], b.train.images[0]);
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(MnistLike, DifferentSeedsDiffer) {
  MnistLikeConfig cfg = small_mnist_config();
  const DatasetPair a = make_mnist_like(cfg);
  cfg.seed += 1;
  const DatasetPair b = make_mnist_like(cfg);
  EXPECT_NE(a.train.images[0], b.train.images[0]);
}

TEST(CifarLike, GeneratesValidRgbDataset) {
  const DatasetPair pair = make_cifar_like(small_cifar_config(10));
  pair.train.check_valid();
  EXPECT_EQ(pair.train.image_shape, (Shape{3, 16, 16}));
  for (const Tensor& img : pair.train.images) {
    EXPECT_GE(ops::min_value(img), 0.0f);
    EXPECT_LE(ops::max_value(img), 1.0f);
  }
}

TEST(CifarLike, TwentyClassVariant) {
  const DatasetPair pair = make_cifar_like(small_cifar_config(20));
  EXPECT_EQ(pair.train.num_classes, 20u);
  EXPECT_EQ(pair.train.size(), 160u);
}

TEST(CifarLike, ClassesAreVisuallyDistinct) {
  // Mean image per class should differ across classes more than within.
  CifarLikeConfig cfg = small_cifar_config(10);
  cfg.pixel_noise = 0.0;
  const DatasetPair pair = make_cifar_like(cfg);
  std::vector<Tensor> class_mean(10, Tensor{pair.train.image_shape});
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t i = 0; i < pair.train.size(); ++i) {
    ops::add_inplace(class_mean[pair.train.labels[i]], pair.train.images[i]);
    ++counts[pair.train.labels[i]];
  }
  for (std::size_t c = 0; c < 10; ++c) {
    ops::scale_inplace(class_mean[c], 1.0f / static_cast<float>(counts[c]));
  }
  double min_between = 1e9;
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      min_between = std::min(min_between, ops::mean_abs_diff(class_mean[a], class_mean[b]));
    }
  }
  EXPECT_GT(min_between, 0.02);
}

TEST(Dataset, HeadAndSplit) {
  const DatasetPair pair = make_mnist_like(small_mnist_config());
  const Dataset head = pair.train.head(10);
  EXPECT_EQ(head.size(), 10u);
  EXPECT_EQ(head.num_classes, 10u);
  const auto [first, second] = pair.train.split(0.25);
  EXPECT_EQ(first.size(), 60u);
  EXPECT_EQ(second.size(), 20u);
  first.check_valid();
  second.check_valid();
  EXPECT_THROW(pair.train.split(0.0), InvalidArgument);
}

/// True when `got` is the first got.size() samples of `full`: images
/// byte-for-byte, labels one by one, and the same split metadata.
::testing::AssertionResult IsPrefixOf(const Dataset& got, const Dataset& full) {
  if (got.num_classes != full.num_classes ||
      got.image_shape != full.image_shape || got.size() > full.size() ||
      got.labels.size() != got.images.size()) {
    return ::testing::AssertionFailure() << "metadata or size differs";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got.labels[i] != full.labels[i]) {
      return ::testing::AssertionFailure() << "label " << i << " differs";
    }
    if (got.images[i].shape() != full.images[i].shape() ||
        std::memcmp(got.images[i].data(), full.images[i].data(),
                    full.images[i].numel() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "image " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Keep renders a prefix of each split's served order without changing a
// pixel of it, with and without pixel noise (whose skipped draws are the
// whole cost of a skipped sample), in both generator families.
TEST(Keep, KeptPrefixesMatchTheFullSplits) {
  for (const double noise : {0.1, 0.0}) {
    MnistLikeConfig mnist = small_mnist_config();
    mnist.pixel_noise = noise;
    CifarLikeConfig cifar = small_cifar_config(10);
    cifar.pixel_noise = noise;
    const DatasetPair full_mnist = make_mnist_like(mnist);
    const DatasetPair full_cifar = make_cifar_like(cifar);
    for (const std::size_t train : {0u, 1u, 7u, 80u, 81u}) {
      for (const std::size_t test : {0u, 1u, 40u, 41u}) {
        SCOPED_TRACE("noise " + std::to_string(noise) + " keep " +
                     std::to_string(train) + "/" + std::to_string(test));
        const DatasetPair m =
            make_mnist_like(mnist, {.train = train, .test = test});
        EXPECT_EQ(m.train.size(), std::min<std::size_t>(train, 80));
        EXPECT_EQ(m.test.size(), std::min<std::size_t>(test, 40));
        EXPECT_TRUE(IsPrefixOf(m.train, full_mnist.train));
        EXPECT_TRUE(IsPrefixOf(m.test, full_mnist.test));
        const DatasetPair c =
            make_cifar_like(cifar, {.train = train, .test = test});
        EXPECT_TRUE(IsPrefixOf(c.train, full_cifar.train));
        EXPECT_TRUE(IsPrefixOf(c.test, full_cifar.test));
      }
    }
  }
}

TEST(Dataset, CheckValidCatchesCorruption) {
  DatasetPair pair = make_mnist_like(small_mnist_config());
  pair.train.labels[0] = 99;
  EXPECT_THROW(pair.train.check_valid(), InvalidArgument);
}

}  // namespace
}  // namespace tsnn::data
