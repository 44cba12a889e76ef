// Neural coding scheme interface.
//
// A coding scheme defines (1) how normalized activations become input spike
// trains, (2) the firing dynamics of hidden spiking layers, and (3) the
// receiver-side PSC magnitude of an arriving spike. Baseline schemes (rate,
// phase, burst, TTFS) live in src/coding/; the paper's contribution (TTAS)
// lives in src/core/.
//
// The primary interface is the event-buffer path (encode_into /
// run_layer_into / readout_into): schemes emit directly into a caller-owned
// EventBuffer and lease scratch from the caller's SimWorkspace, so the
// simulator's steady state allocates nothing. The SpikeRaster-based
// encode/run_layer/readout entry points remain as thin non-virtual
// adapters (they stand up a transient workspace and convert) for tests,
// analyses, and exploratory code.
#pragma once

#include <memory>
#include <string>

#include "snn/event_buffer.h"
#include "snn/spike.h"
#include "snn/topology.h"
#include "snn/workspace.h"
#include "tensor/tensor.h"

namespace tsnn::snn {

/// Identifies the neural coding families studied in the paper.
enum class Coding {
  kRate,
  kPhase,
  kBurst,
  kTtfs,
  kTtas,
};

/// Short display name ("rate", "phase", "burst", "ttfs", "ttas").
std::string coding_name(Coding coding);

/// Shared coding hyperparameters. The paper's empirically found thresholds
/// are defaults in coding/registry.h.
struct CodingParams {
  std::size_t window = 64;        ///< simulation timesteps per layer
  float threshold = 0.4f;         ///< firing threshold theta

  // Phase coding (weighted spikes, Kim et al. 2018).
  std::size_t phase_period = 8;   ///< K phases per oscillation period

  // Burst coding (Park et al. DAC 2019).
  float burst_gain = 2.0f;        ///< geometric gain g of consecutive spikes
  std::size_t burst_cap = 4;      ///< max exponent of the gain (at most
                                  ///< BurstScheme::kMaxBurstCap)

  // TTFS (Park et al. DAC 2020) and TTAS (this paper).
  float tau = 3.0f;               ///< exponential PSC kernel time constant
  std::size_t burst_duration = 1; ///< t_a: phasic burst length (TTAS); 1 = TTFS
};

/// Distinguishes where a spike train comes from. The input encoder emits
/// spikes at the "pixel" scale (base magnitude 1.0, full [0,1] range
/// representable), while hidden layers emit at the threshold scale (base
/// magnitude theta) -- the receiving synapse must weigh arrivals with the
/// sender's convention. This mirrors the conversion literature, where input
/// pixels are injected at unit rate but hidden firing is threshold-scaled.
enum class LayerRole {
  kFirstHidden,  ///< input train comes from the encoder (base 1.0)
  kHidden,       ///< input train comes from a hidden spiking layer (base theta)
};

/// Abstract neural coding scheme.
class CodingScheme {
 public:
  explicit CodingScheme(CodingParams params) : params_(params) {}
  virtual ~CodingScheme() = default;

  virtual Coding kind() const = 0;
  virtual std::string name() const = 0;

  /// Window length of trains produced by this scheme (may exceed
  /// params().window, e.g. TTAS bursts that start near the window edge).
  virtual std::size_t raster_window() const { return params_.window; }

  // Event-buffer hot path -------------------------------------------------
  // All three lease scratch from `ws` (which the caller reuses across
  // images) and must leave `out` finalized. `in` and `out` must be
  // distinct buffers (the simulator ping-pongs ws.cur/ws.next).

  /// Encodes normalized activations (values in [0,1], any shape; flattened
  /// row-major) into `out` at base magnitude 1.0.
  virtual void encode_into(const Tensor& activations, SimWorkspace& ws,
                           EventBuffer& out) const = 0;

  /// Simulates one hidden spiking layer fed by `in` through `syn`:
  /// integrates PSCs (weighing arrivals per `role`), applies the scheme's
  /// firing rule, emits the output spike train into `out`. Non-virtual: a
  /// loop over the stepped hooks below, leasing `ws.seq`, so whole-window
  /// and wavefront runs share one arithmetic definition per scheme
  /// (bit-identity by construction).
  void run_layer_into(const EventBuffer& in, const SynapseTopology& syn,
                      LayerRole role, SimWorkspace& ws,
                      EventBuffer& out) const;

  /// Accumulates the non-firing readout layer into `logits` (length
  /// syn.out_size(), overwritten): total PSC per output neuron over the
  /// window (the "membrane potential" logits). Non-virtual loop over the
  /// stepped readout hooks, like run_layer_into().
  void readout_into(const EventBuffer& in, const SynapseTopology& syn,
                    LayerRole role, SimWorkspace& ws, float* logits) const;

  // Stepped (time-major) interface ----------------------------------------
  // One layer run decomposes into begin_layer, layer_steps(in.window())
  // step_layer calls at t = 0..steps-1, then end_layer (which must leave
  // `out` finalized); a readout run into begin_readout, in.window()
  // step_readout calls, then finish_readout. All state lives in the leased
  // StageState, so snn::simulate_into can hold every stage of the network
  // in flight at once and interleave their timesteps in wavefront order.

  /// True when step_layer(t) reads only input steps <= t, so a time-major
  /// runner may consume the producing stage's steps as they close.
  /// TTFS/TTAS hidden layers integrate the full input window before the
  /// analytic fire phase in end_layer, so they are barrier stages (false).
  /// Readouts are per-step causal for every scheme.
  virtual bool causal_step() const = 0;

  /// Number of step_layer() calls a layer run performs on an input train
  /// of window `in_window`.
  virtual std::size_t layer_steps(std::size_t in_window) const = 0;

  virtual void begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                           LayerRole role, StageState& st,
                           EventBuffer& out) const = 0;
  virtual void step_layer(const EventBuffer& in, const SynapseTopology& syn,
                          LayerRole role, std::size_t t, StageState& st,
                          EventBuffer& out) const = 0;
  /// Completes the layer and finalizes `out`. The default only finalizes:
  /// rate, phase and burst emit every spike from step_layer. TTFS/TTAS
  /// override it with their analytic fire phase.
  virtual void end_layer(const EventBuffer& in, const SynapseTopology& syn,
                         LayerRole role, StageState& st,
                         EventBuffer& out) const;

  virtual void begin_readout(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, StageState& st) const = 0;
  /// Accumulates input step `t` into the readout potentials.
  virtual void step_readout(const EventBuffer& in, const SynapseTopology& syn,
                            LayerRole role, std::size_t t,
                            StageState& st) const = 0;
  /// Copies the accumulated potentials into `logits` (length
  /// syn.out_size()), reading each neuron's slot of the accumulator layout
  /// (SynapseTopology::accum_layout). Pure copy -- callable
  /// after any prefix of the readout steps (the anytime-inference hook).
  virtual void finish_readout(const SynapseTopology& syn, StageState& st,
                              float* logits) const;

  /// Decodes an encoder-convention spike train back to activation estimates
  /// (per neuron). Exercised by round-trip property tests and analyses.
  virtual Tensor decode(const SpikeRaster& in) const = 0;

  // Raster adapters -------------------------------------------------------
  // Convenience wrappers over the event path for tests/analyses; each call
  // stands up a transient SimWorkspace and converts, so they are NOT for
  // hot loops.

  SpikeRaster encode(const Tensor& activations) const;
  SpikeRaster run_layer(const SpikeRaster& in, const SynapseTopology& syn,
                        LayerRole role) const;
  Tensor readout(const SpikeRaster& in, const SynapseTopology& syn,
                 LayerRole role) const;

  const CodingParams& params() const { return params_; }

 protected:
  CodingParams params_;
};

using CodingSchemePtr = std::unique_ptr<CodingScheme>;

/// Propagates step `t` of `in` through `syn` at uniform magnitude `m` --
/// the shared hot-path shape of the rate/phase layer loops and of the
/// rate/phase/TTFS/TTAS readouts, where the PSC magnitude depends on the
/// timestep but not on the individual spike. The step's span is charged
/// as it stands, at one magnitude (SpikeSpan::uniform): nothing is copied
/// or filled. (TTFS/TTAS hidden layers charge a whole train at once:
/// SynapseTopology::propagate_train.) Writes `u` in the topology's
/// accumulator layout (propagate_accum) -- consumers find neuron j at
/// syn.accum_layout().slot(j), and the fire scans take the layout's
/// extents.
inline void propagate_step(const EventBuffer& in, std::size_t t, float m,
                           const SynapseTopology& syn, float* u) {
  const EventBuffer::StepSpan span = in.step(t);
  if (span.count == 0) {
    return;
  }
  syn.propagate_accum(SpikeSpan::uniform(span, &m), u);
}

}  // namespace tsnn::snn
