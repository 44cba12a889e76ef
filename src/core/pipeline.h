// NoiseRobustPipeline -- the library's main public entry point.
//
// Wraps a converted SnnModel with a chosen coding scheme and the paper's
// robustness knobs (TTAS burst duration, weight scaling) and evaluates it
// under spike noise:
//
//   auto bundle = core::zoo::get_or_train(core::DatasetKind::kCifar10Like);
//   auto conv = convert::convert(bundle.net, calibration);
//   core::PipelineConfig cfg;
//   cfg.coding = snn::Coding::kTtas;
//   cfg.params.burst_duration = 5;
//   cfg.weight_scaling = true;
//   cfg.assumed_deletion_p = 0.5;
//   core::NoiseRobustPipeline pipe(conv.model, cfg);
//   auto result = pipe.evaluate(images, labels, noise::make_deletion(0.5).get());
#pragma once

#include <memory>

#include "snn/coding_base.h"
#include "snn/simulator.h"
#include "snn/snn_model.h"

namespace tsnn::core {

/// Configuration of a noise-robust SNN deployment.
struct PipelineConfig {
  snn::Coding coding = snn::Coding::kTtas;
  /// Coding parameters. Precedence is explicit:
  ///   - use_default_params == false: `params` is used verbatim.
  ///   - use_default_params == true:  the registry defaults for `coding`
  ///     are used in full, with one exception -- for Coding::kTtas a
  ///     `params.burst_duration` > 1 overrides the registry's t_a (the
  ///     paper's headline knob). A default-constructed config therefore
  ///     matches coding::default_params(coding) exactly, including the
  ///     registry's TTAS burst duration.
  snn::CodingParams params;
  bool use_default_params = true;

  /// Weight scaling W' = CW with C = 1/(1 - assumed_deletion_p).
  bool weight_scaling = false;
  double assumed_deletion_p = 0.0;

  /// Seed for the noise streams during evaluate()/run(). Both derive
  /// private streams via Rng::for_stream(noise_seed, index) -- see the
  /// stream seeding contract in common/rng.h.
  std::uint64_t noise_seed = 0x7157A5;
};

/// A ready-to-run noisy-SNN evaluation pipeline (owns a scaled model copy).
class NoiseRobustPipeline {
 public:
  /// Builds from an already-converted model; applies weight scaling per
  /// `config` to an internal copy.
  NoiseRobustPipeline(const snn::SnnModel& model, const PipelineConfig& config);

  /// Simulates a single image; `noise` may be null for clean runs. The
  /// noise randomness comes from the private stream
  /// Rng::for_stream(noise_seed, stream) -- the same contract evaluate()
  /// uses for image i -- so a run() call is a pure function of
  /// (pipeline, image, stream): back-to-back calls with the same stream
  /// are identical, independent of call order or history. Pass distinct
  /// stream indices to draw independent corruptions of the same image.
  snn::SimResult run(const Tensor& image, const snn::NoiseModel* noise,
                     std::uint64_t stream = 0);

  /// Evaluates accuracy and spike counts over a labeled set, serially on
  /// the calling thread (snn::evaluate).
  snn::BatchResult evaluate(const std::vector<Tensor>& images,
                            const std::vector<std::size_t>& labels,
                            const snn::NoiseModel* noise);

  const snn::SnnModel& model() const { return model_; }
  const snn::CodingScheme& scheme() const { return *scheme_; }
  const PipelineConfig& config() const { return config_; }

  /// Resets the noise seed: evaluate() batches and run() streams restart
  /// from `seed` exactly as a freshly built pipeline would.
  void reseed(std::uint64_t seed) { config_.noise_seed = seed; }

 private:
  PipelineConfig config_;
  snn::SnnModel model_;
  snn::CodingSchemePtr scheme_;
  snn::SimWorkspace workspace_;  ///< reusable scratch for run() calls
};

}  // namespace tsnn::core
