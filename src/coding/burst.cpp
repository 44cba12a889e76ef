#include "coding/burst.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

namespace {

/// Receiver-side ISI decoding step: updates (last arrival, run length) of
/// one presynaptic neuron on an arrival at `t` and returns the inferred
/// gain exponent -- consecutive-step arrivals escalate, gaps reset.
inline std::size_t isi_on_arrival(std::int64_t t, std::int64_t& last,
                                  std::uint32_t& k) {
  k = (t == last + 1) ? k + 1 : 0;
  last = t;
  return k;
}

}  // namespace

BurstScheme::BurstScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.burst_gain > 1.0f, "burst gain must exceed 1");
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "burst threshold must be positive");
  TSNN_CHECK_MSG(params_.burst_cap <= kMaxBurstCap,
                 "burst cap " << params_.burst_cap << " exceeds "
                              << kMaxBurstCap);
  // Tabulated once with the same float operations a per-spike evaluation
  // would use (powf of the exponent, then one multiply by theta), so a
  // table read is bit-identical to computing the gain in the loop.
  gain_.resize(params_.burst_cap + 1);
  quantum_.resize(params_.burst_cap + 1);
  for (std::size_t e = 0; e <= params_.burst_cap; ++e) {
    gain_[e] = std::pow(params_.burst_gain, static_cast<float>(e));
    quantum_[e] = params_.threshold * gain_[e];
  }
}

void BurstScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                              EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, params_.window);
  // Injection a per step (an axpy), drained by escalating burst quanta of
  // base 1.0 (the burst_fire scan) -- the rate encoder's split, bit-exact
  // for the same reason: each neuron is independent.
  ws.acc.assign(n, 0.0f);
  ws.k.assign(n, 0);
  const float* a = activations.data();
  const auto& kern = simd::kernels();
  simd::BurstFireCtx fire;
  fire.u = ws.acc.data();
  fire.k = ws.k.data();
  fire.cols = n;
  fire.quanta = gain_.data();
  fire.cap = static_cast<std::uint32_t>(params_.burst_cap);
  for (std::size_t t = 0; t < params_.window; ++t) {
    kern.axpy(fire.u, a, 1.0f, n);
    out.append_step(static_cast<std::int32_t>(t), n, [&](std::uint32_t* ids) {
      fire.fired = ids;
      return kern.burst_fire(fire);
    });
  }
  out.finalize(ws.sort);
}

snn::SpikeSpan BurstScheme::decode_arrivals(const EventBuffer& in,
                                            std::size_t t, LayerRole role,
                                            snn::StageState& st) const {
  // Burst magnitudes depend on each sender's ISI history, so they are
  // decoded spike by spike (unlike the uniform-magnitude schemes); the ids
  // are the step's own.
  const float* ladder =
      role == LayerRole::kFirstHidden ? gain_.data() : quantum_.data();
  const std::size_t cap = params_.burst_cap;
  const EventBuffer::StepSpan span = in.step(t);
  st.mag.resize(span.count);
  float* mag = st.mag.data();
  for (std::size_t i = 0; i < span.count; ++i) {
    const std::uint32_t pre = span.ids[i];
    const std::size_t k = isi_on_arrival(static_cast<std::int64_t>(t),
                                         st.isi_last[pre], st.isi_k[pre]);
    mag[i] = ladder[std::min(k, cap)];
  }
  return {span.ids, mag, span.count, 1};
}

void BurstScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, snn::StageState& st,
                              EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  out.reset(out_n, params_.window);
  st.potentials(out_n);
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
  st.k.assign(out_n, 0);
}

void BurstScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, std::size_t t, snn::StageState& st,
                             EventBuffer& out) const {
  if (t < in.window()) {
    syn.propagate_accum(decode_arrivals(in, t, role, st), st.u.data());
  }
  // Escalating fire scan at the threshold scale: quantum theta * g^min(k,cap),
  // over the accumulator layout (the counters st.k are indexed like st.u).
  const snn::AccumLayout layout = syn.accum_layout();
  simd::BurstFireCtx fire;
  fire.u = st.u.data();
  fire.k = st.k.data();
  fire.rows = layout.rows;
  fire.cols = layout.cols;
  fire.quanta = quantum_.data();
  fire.cap = static_cast<std::uint32_t>(params_.burst_cap);
  out.append_step(static_cast<std::int32_t>(t), syn.out_size(),
                  [&](std::uint32_t* ids) {
                    fire.fired = ids;
                    return simd::kernels().burst_fire(fire);
                  });
}

void BurstScheme::end_layer(const EventBuffer& in, const SynapseTopology& syn,
                            LayerRole role, snn::StageState& st,
                            EventBuffer& out) const {
  static_cast<void>(in);
  static_cast<void>(syn);
  static_cast<void>(role);
  out.finalize(st.sort);
}

void BurstScheme::begin_readout(const EventBuffer& in,
                                const SynapseTopology& syn, LayerRole role,
                                snn::StageState& st) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.potentials(syn.out_size());
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
}

void BurstScheme::step_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               std::size_t t, snn::StageState& st) const {
  syn.propagate_accum(decode_arrivals(in, t, role, st), st.u.data());
}

Tensor BurstScheme::decode(const snn::SpikeRaster& in) const {
  Tensor out{Shape{in.num_neurons()}};
  std::vector<std::int64_t> last(in.num_neurons(), -10);
  std::vector<std::uint32_t> k(in.num_neurons(), 0);
  const float inv_t = 1.0f / static_cast<float>(params_.window);
  for (std::size_t t = 0; t < in.window(); ++t) {
    for (const std::uint32_t pre : in.at(t)) {
      const std::size_t kk =
          isi_on_arrival(static_cast<std::int64_t>(t), last[pre], k[pre]);
      out[pre] += burst_gain(kk) * inv_t;
    }
  }
  return out;
}

}  // namespace tsnn::coding
