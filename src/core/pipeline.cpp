#include "core/pipeline.h"

#include "coding/registry.h"
#include "core/weight_scaling.h"

namespace tsnn::core {

namespace {

/// Resolves PipelineConfig's parameter precedence (documented on
/// PipelineConfig::params): explicit params verbatim, or registry defaults
/// with at most the TTAS burst-duration override applied.
snn::CodingParams resolve_params(const PipelineConfig& config) {
  if (!config.use_default_params) {
    return config.params;
  }
  snn::CodingParams params = coding::default_params(config.coding);
  if (config.coding == snn::Coding::kTtas && config.params.burst_duration > 1) {
    params.burst_duration = config.params.burst_duration;
  }
  return params;
}

}  // namespace

NoiseRobustPipeline::NoiseRobustPipeline(const snn::SnnModel& model,
                                         const PipelineConfig& config)
    : config_(config),
      model_(model.clone()),
      scheme_(coding::make_scheme(config.coding, resolve_params(config))) {
  if (config_.weight_scaling) {
    apply_weight_scaling(model_, config_.assumed_deletion_p);
  }
}

snn::SimResult NoiseRobustPipeline::run(const Tensor& image,
                                        const snn::NoiseModel* noise,
                                        std::uint64_t stream) {
  Rng rng = Rng::for_stream(config_.noise_seed, stream);
  snn::SimResult result;
  snn::simulate_into(
      snn::SimRequest{&model_, scheme_.get(), noise, &rng, &workspace_}, image,
      result);
  return result;
}

snn::BatchResult NoiseRobustPipeline::evaluate(
    const std::vector<Tensor>& images, const std::vector<std::size_t>& labels,
    const snn::NoiseModel* noise) {
  snn::EvalOptions options;
  options.base_seed = config_.noise_seed;
  return snn::evaluate(model_, *scheme_, images, labels, noise, options);
}

}  // namespace tsnn::core
