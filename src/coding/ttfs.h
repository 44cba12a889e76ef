// Time-to-first-spike coding (T2FSNN, Park et al. DAC 2020), generalized
// with a phasic burst of configurable duration -- the generalization that
// becomes TTAS coding (this paper's contribution, see src/core/ttas.h).
//
// A neuron transmits its whole activation with the *time* of one spike
// under an exponentially decaying kernel z(t) = exp(-t/tau): activation a
// maps to t = -tau*ln(a). Layers run in T2FSNN's layered-window regime:
// integrate the full input window (charge phase), then fire where the
// potential crosses the dynamic threshold theta(t) = theta*exp(-t/tau).
//
// With burst_duration t_a > 1 the neuron is a simplified
// integrate-and-fire-or-burst (paper Eq. 4): no reset before the first
// spike time t1, threshold-reset bursting during [t1, t1+t_a), -inf after.
// The kernel-sum scale factor C_A = z(t1)/Z_hat = 1/sum_j exp(-j/tau)
// (independent of t1 for the exponential kernel) is folded into the
// receiving synapse so the delivered charge is unchanged.
//
// Emission: encode_into() and end_layer() write each firing neuron's first
// step t1 into workspace scratch (EventSortScratch::first) and emit the
// whole train through EventBuffer::assign_bursts -- one count, prefix sum
// and scatter into time-major order, no per-spike push and no sort. The
// train is the one neuron-major push() + finalize() would build.
#pragma once

#include "snn/coding_base.h"

namespace tsnn::coding {

/// TTFS coding; burst_duration == 1 reproduces T2FSNN, > 1 yields the
/// phasic-burst generalization used by TTAS.
class TtfsScheme : public snn::CodingScheme {
 public:
  explicit TtfsScheme(snn::CodingParams params);

  snn::Coding kind() const override {
    return params_.burst_duration > 1 ? snn::Coding::kTtas : snn::Coding::kTtfs;
  }
  std::string name() const override;

  /// Burst spikes beginning at t1 = window-1 extend the raster window.
  std::size_t raster_window() const override {
    return params_.window + params_.burst_duration - 1;
  }

  void encode_into(const Tensor& activations, snn::SimWorkspace& ws,
                   snn::EventBuffer& out) const override;

  /// Layered-window regime: the charge phase integrates the full input
  /// window before any firing decision (end_layer), so TTFS/TTAS hidden
  /// layers are barrier stages in the simulator's wavefront.
  bool causal_step() const override { return false; }
  std::size_t layer_steps(std::size_t in_window) const override {
    return in_window;
  }
  void begin_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                   snn::LayerRole role, snn::StageState& st,
                   snn::EventBuffer& out) const override;
  void step_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                  snn::LayerRole role, std::size_t t, snn::StageState& st,
                  snn::EventBuffer& out) const override;
  void end_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                 snn::LayerRole role, snn::StageState& st,
                 snn::EventBuffer& out) const override;
  void begin_readout(const snn::EventBuffer& in,
                     const snn::SynapseTopology& syn, snn::LayerRole role,
                     snn::StageState& st) const override;
  void step_readout(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                    snn::LayerRole role, std::size_t t,
                    snn::StageState& st) const override;

  Tensor decode(const snn::SpikeRaster& in) const override;

  /// Exponential PSC kernel value exp(-t/tau).
  float kernel(std::int64_t t) const;

  /// Kernel-sum normalization C_A = 1 / sum_{j<t_a} exp(-j/tau); equals 1
  /// for burst_duration == 1 (plain TTFS).
  float kernel_sum_scale() const { return kernel_sum_scale_; }

  /// First-spike time encoding a (encoder convention, base 1.0), or -1 if
  /// `a` is below the smallest representable activation.
  std::int64_t encode_time(float a) const;

  /// Smallest representable activation: theta-free encoder floor exp(-(T-1)/tau).
  float min_activation() const { return kernel(static_cast<std::int64_t>(params_.window) - 1); }

 private:
  float kernel_sum_scale_ = 1.0f;
};

}  // namespace tsnn::coding
