// Tests for the batch evaluator: snn::evaluate (and the pipeline on top of
// it) must follow the per-image RNG stream contract of common/rng.h --
// image i of a batch draws from Rng::for_stream(base_seed, i), whatever
// else is in the batch. core::run_grid's thread-count invariance over the
// same requests is pinned in tests/test_experiment.cpp.
#include <gtest/gtest.h>

#include "coding/registry.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "noise/noise.h"
#include "snn/simulator.h"
#include "snn/topology.h"

namespace tsnn {
namespace {

using snn::Coding;

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

/// Synthetic separable 2-class dataset; overlap-free so clean accuracy is 1.
struct Fixture {
  snn::SnnModel model = tiny_model();
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;

  explicit Fixture(std::size_t n = 64) {
    Rng rng(21);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor x{Shape{4}};
      const std::size_t cls = i % 2;
      for (std::size_t j = 0; j < 4; ++j) {
        const bool hot = (j / 2) == cls;
        x[j] = static_cast<float>(rng.uniform(hot ? 0.6 : 0.05, hot ? 0.9 : 0.2));
      }
      images.push_back(std::move(x));
      labels.push_back(cls);
    }
  }
};

snn::BatchResult eval_batch(const Fixture& f, const snn::NoiseModel* noise) {
  const auto scheme = coding::make_scheme(Coding::kRate);
  snn::EvalOptions options;
  options.base_seed = 0xBEEF;
  return snn::evaluate(f.model, *scheme, f.images, f.labels, noise, options);
}

TEST(ParallelEval, MatchesPerImageStreamReference) {
  // The evaluator must agree spike-for-spike with a hand-rolled loop over
  // Rng::for_stream(base_seed, i) -- the documented contract.
  const Fixture f(16);
  const auto scheme = coding::make_scheme(Coding::kRate);
  const auto noise = noise::make_deletion(0.4);

  std::size_t correct = 0;
  std::size_t spikes = 0;
  for (std::size_t i = 0; i < f.images.size(); ++i) {
    Rng rng = Rng::for_stream(0xBEEF, i);
    const auto r = snn::simulate(
        snn::SimRequest{&f.model, scheme.get(), noise.get(), &rng},
        f.images[i]);
    correct += r.predicted_class == f.labels[i] ? 1 : 0;
    spikes += r.total_spikes;
  }

  const auto batch = eval_batch(f, noise.get());
  EXPECT_EQ(batch.num_correct, correct);
  EXPECT_DOUBLE_EQ(batch.mean_spikes_per_image,
                   static_cast<double>(spikes) /
                       static_cast<double>(f.images.size()));
}

TEST(ParallelEval, ResultIndependentOfBatchContext) {
  // Image i's outcome depends only on (base_seed, i): evaluating a prefix
  // yields the same aggregate as the prefix of the full batch would.
  const Fixture f(32);
  const auto noise = noise::make_deletion(0.5);
  const auto scheme = coding::make_scheme(Coding::kRate);

  Fixture prefix(32);
  prefix.images.resize(8);
  prefix.labels.resize(8);

  std::size_t full_prefix_correct = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    Rng rng = Rng::for_stream(0xBEEF, i);
    const auto r = snn::simulate(
        snn::SimRequest{&f.model, scheme.get(), noise.get(), &rng},
        f.images[i]);
    full_prefix_correct += r.predicted_class == f.labels[i] ? 1 : 0;
  }
  const auto sub = eval_batch(prefix, noise.get());
  EXPECT_EQ(sub.num_correct, full_prefix_correct);
}

TEST(ParallelEval, EmptyBatch) {
  Fixture f(0);
  const auto r = eval_batch(f, nullptr);
  EXPECT_EQ(r.num_images, 0u);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.0);
}

TEST(ParallelEval, PipelineEvaluateIsRepeatableWithoutReseed) {
  // evaluate() is a pure function of (inputs, noise_seed): two back-to-back
  // calls agree, with no reseed() needed in between.
  const Fixture f;
  const auto noise = noise::make_deletion(0.5);
  core::PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.noise_seed = 5;
  core::NoiseRobustPipeline pipe(f.model, cfg);
  const auto r1 = pipe.evaluate(f.images, f.labels, noise.get());
  const auto r2 = pipe.evaluate(f.images, f.labels, noise.get());
  EXPECT_EQ(r1.num_correct, r2.num_correct);
  EXPECT_DOUBLE_EQ(r1.mean_spikes_per_image, r2.mean_spikes_per_image);
}

}  // namespace
}  // namespace tsnn
