#include "coding/rate.h"

#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

RateScheme::RateScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "rate threshold must be positive");
  TSNN_CHECK_MSG(params_.window > 0, "window must be positive");
}

void RateScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                             EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, params_.window);
  // Deterministic rate encoding: an accumulator integrates `a` per step and
  // fires on crossing 1, giving count == round-ish(a*T) with rate <= 1.
  // Integration is an axpy and the fire pass a subtract-mode threshold
  // scan; splitting them is bit-exact (each neuron is independent, per-i
  // order unchanged) and both run through the dispatch table.
  ws.acc.assign(n, 0.0f);
  const float* a = activations.data();
  const auto& kern = simd::kernels();
  simd::ThresholdCtx fire;
  fire.u = ws.acc.data();
  fire.cols = n;
  fire.threshold = 1.0f;
  fire.subtract = true;
  for (std::size_t t = 0; t < params_.window; ++t) {
    kern.axpy(fire.u, a, 1.0f, n);
    out.append_step(static_cast<std::int32_t>(t), n, [&](std::uint32_t* ids) {
      fire.fired = ids;
      return kern.threshold_fire(fire);
    });
  }
  out.finalize(ws.sort);
}

void RateScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, snn::StageState& st,
                             EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  out.reset(out_n, params_.window);
  st.potentials(out_n);
}

void RateScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                            LayerRole role, std::size_t t, snn::StageState& st,
                            EventBuffer& out) const {
  // Rate invariant: a spike train firing at rate r represents activation r.
  // Arrivals carry theta and the fire threshold is theta, so the output rate
  // equals the weighted input rate regardless of the role -- theta is a pure
  // gauge for rate coding (it matters for phase/burst/TTFS capacity).
  const float theta = params_.threshold;
  static_cast<void>(role);
  snn::propagate_step(in, t, theta, syn, st.u.data());
  // Subtract-mode threshold scan over the accumulator layout: fire where
  // u >= theta and soft-reset by draining theta (residual preserved,
  // RMP-SNN). The scan writes its ids straight into the train.
  const snn::AccumLayout layout = syn.accum_layout();
  simd::ThresholdCtx fire;
  fire.u = st.u.data();
  fire.rows = layout.rows;
  fire.cols = layout.cols;
  fire.threshold = theta;
  fire.subtract = true;
  out.append_step(static_cast<std::int32_t>(t), syn.out_size(),
                  [&](std::uint32_t* ids) {
                    fire.fired = ids;
                    return simd::kernels().threshold_fire(fire);
                  });
}

void RateScheme::end_layer(const EventBuffer& in, const SynapseTopology& syn,
                           LayerRole role, snn::StageState& st,
                           EventBuffer& out) const {
  static_cast<void>(in);
  static_cast<void>(syn);
  static_cast<void>(role);
  out.finalize(st.sort);
}

void RateScheme::begin_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               snn::StageState& st) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.potentials(syn.out_size());
}

void RateScheme::step_readout(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, std::size_t t,
                              snn::StageState& st) const {
  static_cast<void>(role);
  snn::propagate_step(in, t, params_.threshold, syn, st.u.data());
}

Tensor RateScheme::decode(const snn::SpikeRaster& in) const {
  Tensor out{Shape{in.num_neurons()}};
  const float inv_t = 1.0f / static_cast<float>(params_.window);
  for (std::size_t t = 0; t < in.window(); ++t) {
    for (const std::uint32_t pre : in.at(t)) {
      out[pre] += inv_t;
    }
  }
  return out;
}

}  // namespace tsnn::coding
