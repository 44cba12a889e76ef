// Burst coding (Park et al. DAC 2019).
//
// Consecutive spikes escalate in significance by a geometric gain g: the
// k-th spike of an uninterrupted burst carries g^k times the base charge.
// The *receiver* reconstructs k from inter-spike intervals, so deleting a
// spike mid-burst or jittering one off its slot demotes the remainder of
// the burst -- the physical reason burst coding sits between rate and TTFS
// in noise robustness.
#pragma once

#include <algorithm>
#include <vector>

#include "snn/coding_base.h"

namespace tsnn::coding {

/// Burst coding scheme with sender-side escalation and receiver-side ISI
/// decoding.
class BurstScheme : public snn::CodingScheme {
 public:
  /// Largest accepted CodingParams::burst_cap. A counter climbs at most
  /// once per timestep, so a cap beyond the window never binds; the bound
  /// keeps the gain ladder (cap + 1 floats) small and every exponent a
  /// valid 32-bit table index for the burst_fire kernel.
  static constexpr std::size_t kMaxBurstCap = 1024;

  /// Validates the parameters (gain > 1, threshold > 0, burst_cap <=
  /// kMaxBurstCap) and tabulates the gain ladder.
  explicit BurstScheme(snn::CodingParams params);

  snn::Coding kind() const override { return snn::Coding::kBurst; }
  std::string name() const override { return "burst"; }

  void encode_into(const Tensor& activations, snn::SimWorkspace& ws,
                   snn::EventBuffer& out) const override;

  bool causal_step() const override { return true; }
  std::size_t layer_steps(std::size_t in_window) const override {
    static_cast<void>(in_window);
    return params_.window;
  }
  void begin_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                   snn::LayerRole role, snn::StageState& st,
                   snn::EventBuffer& out) const override;
  void step_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                  snn::LayerRole role, std::size_t t, snn::StageState& st,
                  snn::EventBuffer& out) const override;
  void begin_readout(const snn::EventBuffer& in,
                     const snn::SynapseTopology& syn, snn::LayerRole role,
                     snn::StageState& st) const override;
  void step_readout(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                    snn::LayerRole role, std::size_t t,
                    snn::StageState& st) const override;

  Tensor decode(const snn::SpikeRaster& in) const override;

  /// Gain of the k-th consecutive spike, capped at burst_cap: g^min(k,cap).
  float burst_gain(std::size_t k) const {
    return gain_[std::min(k, params_.burst_cap)];
  }

 private:
  /// The ISI-decoded arrivals of step `t`: the step's ids, each at its
  /// sender's gain (in st.mag). Each sender's escalation counter k is
  /// reconstructed from its arrival history in st.isi_last/st.isi_k (sized
  /// to `in`, reset by begin_layer/begin_readout).
  snn::SpikeSpan decode_arrivals(const snn::EventBuffer& in, std::size_t t,
                                 snn::LayerRole role,
                                 snn::StageState& st) const;

  // The ladders a sender's spikes drain and weigh: gain_ at the encoder's
  // base 1.0, quantum_ at the hidden layers' base theta.
  std::vector<float> gain_;     ///< g^e for e = 0..burst_cap
  std::vector<float> quantum_;  ///< threshold * gain_[e]
};

}  // namespace tsnn::coding
