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
// and scatter into time-major order, no per-spike append and no sort. The
// train is the one a SpikeRaster filled neuron-major (each burst in turn)
// and passed through EventBuffer::assign_from would build.
//
// Tables, built once per scheme with the historical float expressions, so
// the hot paths call no libm and divide nothing:
//   * kernel(t) and the per-step charge magnitudes over the raster window;
//   * the encoder's and the fire phase's spike times, as breakpoint tables
//     (SpikeTimeTable): a lookup guesses from the float's bits, walks to
//     the exact breakpoint count, and evaluates the expression itself only
//     within SpikeTimeTable::kGuard floats of a breakpoint.
// A hidden layer charges its whole input train in end_layer, through one
// SynapseTopology::propagate_train call (layer_steps() is 0).
#pragma once

#include <cstdint>
#include <vector>

#include "snn/coding_base.h"

namespace tsnn::coding {

/// A spike-time expression f: float -> [0, last] that is non-increasing on
/// [lo, inf) (the clamped lround(tau * ln(base / x)) of both TTFS times),
/// as breakpoints: bp[k] is the smallest float x >= lo with f(x) <= k, so
/// f(x) = #{k : x < bp[k]}. Positive floats order like their bit patterns,
/// so the table holds bits and every compare is an integer compare.
/// Exactness does not rest on the expression being monotone floats apart:
/// a lookup within kGuard floats of a breakpoint evaluates f itself, and so
/// does one below 2^-64.
class SpikeTimeTable {
 public:
  /// Floats either side of a breakpoint that a lookup evaluates exactly.
  static constexpr std::int32_t kGuard = 64;

  SpikeTimeTable() = default;
  /// Tabulates `exact` over [lo, FLT_MAX]; `base` and `tau` seed the
  /// lookup's first guess (f(x) ~ tau * ln(base / x)) and do not affect
  /// its result.
  template <typename Exact>
  SpikeTimeTable(float lo, std::int32_t last, float base, float tau,
                 const Exact& exact);

  /// f(x) for x >= lo, given `exact` (the expression tabulated); -1 for
  /// x < lo; `exact` decides a NaN.
  template <typename Exact>
  std::int32_t operator()(float x, const Exact& exact) const;

 private:
  /// The table starts here (or at lo, if higher); below it `exact` decides.
  /// theta / u overflows to inf for u near the bottom of the float range,
  /// where the fire time stops falling with u.
  static constexpr float kFrom = 0x1p-64f;

  float lo_ = 0.0f;
  float from_ = 0.0f;
  std::int32_t last_ = 0;
  float guess0_ = 0.0f;  ///< first guess: guess0_ - guess1_ * bits(x)
  float guess1_ = 0.0f;
  /// The last_ breakpoint bit patterns, between the sentinels INT32_MAX
  /// (bp[-1]) and INT32_MIN (bp[last_]).
  std::vector<std::int32_t> bp_;
};

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
  /// window before any firing decision, so TTFS/TTAS hidden layers are
  /// barrier stages in the simulator's wavefront. end_layer charges the
  /// whole train in one propagate_train call, so a layer run takes no
  /// step_layer call.
  bool causal_step() const override { return false; }
  std::size_t layer_steps(std::size_t in_window) const override {
    static_cast<void>(in_window);
    return 0;
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

  /// Exponential PSC kernel value exp(-t/tau) (tabulated over the raster
  /// window).
  float kernel(std::int64_t t) const;

  /// Kernel-sum normalization C_A = 1 / sum_{j<t_a} exp(-j/tau); equals 1
  /// for burst_duration == 1 (plain TTFS).
  float kernel_sum_scale() const { return kernel_sum_scale_; }

  /// First-spike time encoding a (encoder convention, base 1.0):
  /// clamp(lround(-tau ln a), 0, T-1) in float, or -1 if `a` is below the
  /// smallest representable activation.
  std::int64_t encode_time(float a) const;

  /// First-spike time of a hidden neuron at potential u:
  /// clamp(lround(tau ln(theta / u)), 0, T-1) in float, or -1 if u is
  /// below the dynamic threshold's floor theta * kernel(T-1) (silent).
  std::int64_t fire_time(float u) const;

  /// Smallest representable activation: theta-free encoder floor exp(-(T-1)/tau).
  float min_activation() const { return kernel(static_cast<std::int64_t>(params_.window) - 1); }

 private:
  /// The historical per-neuron expressions the time tables reproduce.
  std::int32_t encode_time_exact(float a) const;
  std::int32_t fire_time_exact(float u) const;
  /// PSC magnitude of an arrival at step t, by the sender's role.
  float charge(snn::LayerRole role, std::size_t t) const;

  float kernel_sum_scale_ = 1.0f;
  std::vector<float> kernel_;  ///< kernel(t), t < raster_window()
  /// charge(role, t) for t < raster_window(): [0] first hidden, [1] hidden.
  std::vector<float> charge_[2];
  SpikeTimeTable encode_times_;
  SpikeTimeTable fire_times_;
};

}  // namespace tsnn::coding
