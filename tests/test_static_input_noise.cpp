// Tests for the SS II-B noise taxonomy extensions: static parametric noise
// on the converted model and external input noise on images.
#include <gtest/gtest.h>

#include <limits>

#include "coding/registry.h"
#include "common/error.h"
#include "noise/input_noise.h"
#include "noise/static_noise.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "tensor/tensor_ops.h"

namespace tsnn::noise {
namespace {

snn::SnnModel tiny_model() {
  snn::SnnModel model(Shape{4});
  Tensor eye{Shape{4, 4}};
  for (std::size_t i = 0; i < 4; ++i) {
    eye(i, i) = 1.0f;
  }
  model.add_stage("hidden", std::make_unique<snn::DenseTopology>(eye));
  Tensor readout{Shape{2, 4}, {1, 1, 0, 0, 0, 0, 1, 1}};
  model.add_stage("readout", std::make_unique<snn::DenseTopology>(readout));
  return model;
}

TEST(StaticNoise, ZeroSigmaIsIdentity) {
  const snn::SnnModel base = tiny_model();
  const snn::SnnModel noisy = with_static_noise(base, StaticNoiseConfig{});
  std::vector<float> u_base(4, 0.0f);
  std::vector<float> u_noisy(4, 0.0f);
  base.stage(0).synapse->accumulate(0, 1.0f, u_base.data());
  noisy.stage(0).synapse->accumulate(0, 1.0f, u_noisy.data());
  EXPECT_EQ(u_base, u_noisy);
}

TEST(StaticNoise, WeightSigmaPerturbsWithoutBias) {
  const snn::SnnModel base = tiny_model();
  StaticNoiseConfig cfg;
  cfg.weight_sigma = 0.2;
  // Average perturbation over many seeds is unbiased (multiplicative,
  // zero-mean factor).
  double acc = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    cfg.seed = static_cast<std::uint64_t>(i + 1);
    const snn::SnnModel noisy = with_static_noise(base, cfg);
    std::vector<float> u(4, 0.0f);
    noisy.stage(0).synapse->accumulate(0, 1.0f, u.data());
    acc += u[0];
  }
  EXPECT_NEAR(acc / trials, 1.0, 0.02);
}

TEST(StaticNoise, IsDeterministicPerSeed) {
  const snn::SnnModel base = tiny_model();
  StaticNoiseConfig cfg;
  cfg.weight_sigma = 0.3;
  cfg.seed = 99;
  const snn::SnnModel a = with_static_noise(base, cfg);
  const snn::SnnModel b = with_static_noise(base, cfg);
  std::vector<float> ua(4, 0.0f);
  std::vector<float> ub(4, 0.0f);
  a.stage(0).synapse->accumulate(0, 1.0f, ua.data());
  b.stage(0).synapse->accumulate(0, 1.0f, ub.data());
  EXPECT_EQ(ua, ub);  // static noise: same pattern every time
}

TEST(StaticNoise, StuckAtZeroKillsFraction) {
  Tensor big{Shape{100, 100}, 1.0f};
  snn::SnnModel model(Shape{100});
  model.add_stage("fc", std::make_unique<snn::DenseTopology>(big));
  StaticNoiseConfig cfg;
  cfg.stuck_at_zero = 0.3;
  const snn::SnnModel noisy = with_static_noise(model, cfg);
  std::size_t zeros = 0;
  noisy.stage(0).synapse->map_weights([&](float w) {
    zeros += w == 0.0f ? 1 : 0;
    return w;
  });
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
}

TEST(StaticNoise, RejectsInvalidConfig) {
  StaticNoiseConfig bad;
  bad.weight_sigma = -1.0;
  EXPECT_THROW(with_static_noise(tiny_model(), bad), InvalidArgument);
  bad.weight_sigma = 0.0;
  bad.stuck_at_zero = 1.5;
  EXPECT_THROW(with_static_noise(tiny_model(), bad), InvalidArgument);
}

TEST(StaticNoise, RejectsNonFiniteSigmas) {
  const double inf = std::numeric_limits<double>::infinity();
  StaticNoiseConfig bad;
  bad.weight_sigma = inf;
  EXPECT_THROW(with_static_noise(tiny_model(), bad), InvalidArgument);
  bad.weight_sigma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with_static_noise(tiny_model(), bad), InvalidArgument);
  Rng rng(3);
  const snn::CodingParams base = coding::default_params(snn::Coding::kRate);
  EXPECT_THROW(with_threshold_noise(base, inf, rng), InvalidArgument);
}

TEST(InputNoise, GaussianRejectsNonFiniteSigma) {
  EXPECT_THROW(GaussianInputNoise(std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(GaussianInputNoise(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
}

TEST(ThresholdNoise, PerturbsMultiplicatively) {
  const snn::CodingParams base = coding::default_params(snn::Coding::kRate);
  Rng rng(5);
  double acc = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const snn::CodingParams noisy = with_threshold_noise(base, 0.1, rng);
    EXPECT_GT(noisy.threshold, 0.0f);
    acc += noisy.threshold;
  }
  EXPECT_NEAR(acc / trials, base.threshold, 0.002);
  EXPECT_THROW(with_threshold_noise(base, -0.1, rng), InvalidArgument);
}

TEST(InputNoise, GaussianClampsAndPerturbs) {
  Tensor img{Shape{1, 8, 8}, 0.5f};
  Rng rng(7);
  const Tensor noisy = gaussian_input_noise(img, 0.2, rng);
  EXPECT_GE(ops::min_value(noisy), 0.0f);
  EXPECT_LE(ops::max_value(noisy), 1.0f);
  EXPECT_GT(ops::mean_abs_diff(noisy, img), 0.05);
  // Zero sigma is the identity.
  EXPECT_EQ(gaussian_input_noise(img, 0.0, rng), img);
}

TEST(InputNoise, SaltPepperForcesExtremes) {
  Tensor img{Shape{1, 16, 16}, 0.5f};
  Rng rng(9);
  const Tensor noisy = salt_pepper_input_noise(img, 0.4, rng);
  std::size_t extreme = 0;
  for (std::size_t i = 0; i < noisy.numel(); ++i) {
    if (noisy[i] == 0.0f || noisy[i] == 1.0f) {
      ++extreme;
    }
  }
  EXPECT_NEAR(static_cast<double>(extreme) / 256.0, 0.4, 0.08);
  EXPECT_THROW(salt_pepper_input_noise(img, 1.5, rng), InvalidArgument);
}

TEST(InputNoise, DegradesTinyClassifier) {
  // External noise flows through encoding like any input: accuracy of the
  // tiny 2-class model should fall as input corruption grows.
  const snn::SnnModel model = tiny_model();
  const auto scheme = coding::make_scheme(snn::Coding::kRate);
  Rng data_rng(11);
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 30; ++i) {
    Tensor x{Shape{4}};
    const std::size_t cls = static_cast<std::size_t>(i % 2);
    for (std::size_t j = 0; j < 4; ++j) {
      const bool hot = (j / 2) == cls;
      x[j] = static_cast<float>(data_rng.uniform(hot ? 0.7 : 0.05, hot ? 0.9 : 0.15));
    }
    images.push_back(std::move(x));
    labels.push_back(cls);
  }
  snn::EvalOptions options;
  options.base_seed = 13;
  const auto clean =
      snn::evaluate(model, *scheme, images, labels, nullptr, options);

  Rng noise_rng(15);
  std::vector<Tensor> corrupted;
  corrupted.reserve(images.size());
  for (const Tensor& img : images) {
    corrupted.push_back(gaussian_input_noise(img, 0.6, noise_rng));
  }
  const auto noisy =
      snn::evaluate(model, *scheme, corrupted, labels, nullptr, options);
  EXPECT_EQ(clean.accuracy, 1.0);
  EXPECT_LT(noisy.accuracy, clean.accuracy);
}

}  // namespace
}  // namespace tsnn::noise
