#include "coding/phase.h"

#include <cmath>

#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

PhaseScheme::PhaseScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.phase_period > 0 && params_.phase_period <= 24,
                 "phase period out of range");
  TSNN_CHECK_MSG(params_.window % params_.phase_period == 0,
                 "window must be a multiple of the phase period");
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "phase threshold must be positive");
}

float PhaseScheme::phase_weight(std::size_t t) const {
  return std::ldexp(1.0f, -static_cast<int>(t % params_.phase_period) - 1);
}

void PhaseScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                              EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, params_.window);
  // Greedy binary expansion per period (MSB phase first); the residual
  // carries into the next period, so quantization error shrinks over time.
  // Period-start integration is an axpy and each phase a subtract-mode
  // threshold scan at that phase's weight -- bit-exact split, neurons are
  // independent.
  ws.acc.assign(n, 0.0f);
  const float* a = activations.data();
  const auto& kern = simd::kernels();
  simd::ThresholdCtx fire;
  fire.u = ws.acc.data();
  fire.cols = n;
  fire.subtract = true;
  for (std::size_t t = 0; t < params_.window; ++t) {
    if ((t % params_.phase_period) == 0) {
      kern.axpy(fire.u, a, 1.0f, n);
    }
    fire.threshold = phase_weight(t);
    out.append_step(static_cast<std::int32_t>(t), n, [&](std::uint32_t* ids) {
      fire.fired = ids;
      return kern.threshold_fire(fire);
    });
  }
  out.finalize();
}

void PhaseScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, snn::StageState& st,
                              EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  out.reset(out_n, params_.window);
  st.potentials(out_n);
}

void PhaseScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, std::size_t t, snn::StageState& st,
                             EventBuffer& out) const {
  const float theta = params_.threshold;
  // Encoder spikes are worth pw(t); hidden spikes are worth theta*pw(t).
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : theta;
  if (t < in.window()) {
    snn::propagate_step(in, t, base_in * phase_weight(t), syn, st.u.data());
  }
  // Greedy weighted-spike emission: a neuron fires at phase t if its
  // potential covers the theta-scaled phase weight, draining that quantum
  // -- a subtract-mode threshold scan per phase, straight into the train.
  const snn::AccumLayout layout = syn.accum_layout();
  simd::ThresholdCtx fire;
  fire.u = st.u.data();
  fire.rows = layout.rows;
  fire.cols = layout.cols;
  fire.threshold = theta * phase_weight(t);
  fire.subtract = true;
  out.append_step(static_cast<std::int32_t>(t), syn.out_size(),
                  [&](std::uint32_t* ids) {
                    fire.fired = ids;
                    return simd::kernels().threshold_fire(fire);
                  });
}

void PhaseScheme::begin_readout(const EventBuffer& in,
                                const SynapseTopology& syn, LayerRole role,
                                snn::StageState& st) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.potentials(syn.out_size());
}

void PhaseScheme::step_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               std::size_t t, snn::StageState& st) const {
  const float base_in =
      role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  snn::propagate_step(in, t, base_in * phase_weight(t), syn, st.u.data());
}

Tensor PhaseScheme::decode(const snn::SpikeRaster& in) const {
  Tensor out{Shape{in.num_neurons()}};
  const float inv_periods = 1.0f / static_cast<float>(num_periods());
  for (std::size_t t = 0; t < in.window(); ++t) {
    const float pw = phase_weight(t);
    for (const std::uint32_t pre : in.at(t)) {
      out[pre] += pw * inv_periods;
    }
  }
  return out;
}

}  // namespace tsnn::coding
