// SNN simulator: one execution core with an anytime decision policy.
//
// Runs one image through a converted SnnModel under a coding scheme, with an
// optional noise model corrupting every spike train (input encoding and all
// hidden layers) before it reaches the next synapse stage -- the paper's
// noisy-output-spike model. The last stage is a non-firing readout whose
// accumulated membrane potential is the logit vector.
//
// The single entry point is a SimRequest: one options struct naming the
// model, scheme, and optional noise/rng/workspace/decision policy, so
// callers (and the future serve mode) batch against one stable signature
// instead of an overload family. The hot path is
// simulate_into(request, image, out): spike trains live in the request's
// SimWorkspace as flat EventBuffers, noise is applied in place, and the
// SimResult's storage is recycled -- once the workspace is warm,
// simulating an image performs zero heap allocations (see
// docs/ARCHITECTURE.md, "Event buffers & the zero-allocation workspace").
//
// simulate_into() drives the schemes' stepped hooks (coding_base.h) and
// watches the readout margin after every consumed timestep, terminating
// early when the SimRequest's DecisionPolicy says the decision is stable
// (anytime inference); see simulate_into() for its two regimes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "snn/coding_base.h"
#include "snn/noise_base.h"
#include "snn/snn_model.h"
#include "snn/workspace.h"

namespace tsnn::noise {
class InputNoiseModel;
}

namespace tsnn::snn {

/// When may the simulator stop consuming readout timesteps early? Off by
/// default: the full window runs. kMargin terminates once the top-1/top-2
/// logit gap reaches `margin` (checked after every consumed readout timestep, but not before
/// `min_timesteps` of them); an optional hard `deadline` caps the consumed
/// timesteps regardless of mode. Early exit is an opt-in semantic change:
/// golden pins only hold with the policy off.
struct DecisionPolicy {
  enum class Mode {
    kOff,     ///< never exit early
    kMargin,  ///< exit when top1 - top2 logit gap >= margin
  };
  Mode mode = Mode::kOff;
  float margin = 0.0f;          ///< required top-2 logit gap (kMargin)
  std::size_t min_timesteps = 0;  ///< never exit before this many readout steps
  std::size_t deadline = 0;       ///< hard cap on readout steps; 0 = none

  /// True when the policy can terminate an image early.
  bool enabled() const { return mode != Mode::kOff || deadline > 0; }

  /// Human-readable provenance string: "off" or e.g.
  /// "margin:0.2,min:4,deadline:32" (omitting unset fields) -- the format
  /// ScenarioSpec's `early_exit` key parses.
  std::string describe() const;

  bool operator==(const DecisionPolicy&) const = default;
};

/// Outcome of simulating one image.
struct SimResult {
  Tensor logits;                            ///< readout potentials, one per class
  std::size_t predicted_class = 0;
  std::size_t total_spikes = 0;             ///< spikes across all spiking layers
  std::vector<std::size_t> layer_spikes;    ///< per spike-train (encoder + hidden)
  /// Readout timesteps consumed before the decision. With the policy off
  /// (or never firing) this is the readout input's full window -- the
  /// no-anytime latency.
  std::size_t decision_timestep = 0;
  float margin = 0.0f;  ///< top-1/top-2 logit gap at the decision
};

/// Everything one simulation needs besides the image: the model and coding
/// scheme (required), and the optional noise model, rng, and reusable
/// workspace. Aggregate-initializable so call sites read like named
/// arguments:
///
///   snn::simulate({.model = &model, .scheme = &scheme}, image)
///   snn::SimRequest req{&model, &scheme, &noise, &rng, &ws};
///   snn::simulate_into(req, image, out);   // zero-alloc hot path
///
/// `rng` may be null only when `noise` is null; a null `workspace` makes
/// the call self-contained (a transient workspace, convenient but cold).
/// The request only borrows the pointers -- everything must outlive the
/// call, and `workspace` must not be shared across threads.
struct SimRequest {
  const SnnModel* model = nullptr;
  const CodingScheme* scheme = nullptr;
  const NoiseModel* noise = nullptr;
  Rng* rng = nullptr;
  SimWorkspace* workspace = nullptr;
  DecisionPolicy policy;  ///< anytime-inference policy; off by default
};

/// Zero-allocation entry point: simulates `image` per `req` into `out`,
/// reusing the request's workspace (when set) and `out`'s storage.
///
/// Hidden stages run stage by stage, each to completion, and the readout
/// is stepped under req.policy: decision_timestep then counts readout
/// timesteps consumed, the on-hardware latency metric for temporal
/// codings. Only with the policy enabled, a per-step-causal scheme
/// (rate/phase/burst) and no noise model do all hidden stages and the
/// readout advance in lockstep wavefront order instead: in round t, stage
/// s consumes step t of stage s-1's train (closed earlier the same round)
/// and closes its own step t, then the readout consumes step t and the
/// policy is consulted -- an early exit truncates the remaining timesteps
/// of *every* stage. TTFS/TTAS hidden layers are barrier stages
/// (causal_step() == false: the analytic fire phase needs the whole input
/// window), and noise models corrupt complete trains in stage order from
/// one Rng stream (the draw-order contract), so both stay stage by stage.
/// A wavefront run whose policy never fires is bit-identical to the
/// stage-by-stage run.
void simulate_into(const SimRequest& req, const Tensor& image, SimResult& out);

/// Convenience wrapper allocating a fresh SimResult per call.
SimResult simulate(const SimRequest& req, const Tensor& image);

/// One self-contained classify request -- the unit of the request-level
/// execution core. Extends SimRequest with the image, an optional
/// pre-encoding input corruption, and the request's *stream identity*:
/// execution always draws from Rng::for_stream(seed, stream) (input noise
/// first, spike noise second -- one deterministic draw order), so a
/// request's result is a pure function of the request itself, never of
/// batching decisions, scheduling, arrival jitter, or thread count. This
/// is the determinism contract that makes a replayed request trace
/// bit-reproducible under any serving configuration.
///
/// Every execution client -- snn::evaluate's serial loop,
/// core::run_grid's admission-queued task stream, and the online
/// core::InferenceServer -- compiles its work down to ClassifyRequests and
/// runs them through execute_request(), so their results cannot drift
/// apart. `sim.rng` and `sim.workspace` are ignored (the executing thread
/// supplies both); all pointers are borrowed and must outlive execution.
struct ClassifyRequest {
  SimRequest sim;  ///< model / scheme / spike noise / decision policy
  /// Pre-encoding image corruption (null = none); applied into the
  /// executing workspace's input_scratch before encoding.
  const noise::InputNoiseModel* input_noise = nullptr;
  const Tensor* image = nullptr;
  std::uint64_t seed = 0;    ///< base seed of the request's stream family
  std::uint64_t stream = 0;  ///< stream index within the family
};

/// Executes one classify request on `ws` (the calling thread's warm
/// workspace) into `out`: derives the request's private rng from
/// (seed, stream), applies input noise into workspace scratch, and
/// simulates. Allocation-free once `ws` is warm. THE per-request body of
/// every execution client (see ClassifyRequest).
void execute_request(const ClassifyRequest& req, SimWorkspace& ws,
                     SimResult& out);

/// Top-1 minus top-2 of `logits` (0 when fewer than 2 entries) -- the
/// decision margin SimResult records.
float logit_margin(const float* logits, std::size_t n);

/// Batch evaluation: accuracy and mean spike count over a labeled set.
struct BatchResult {
  double accuracy = 0.0;
  double mean_spikes_per_image = 0.0;
  std::size_t num_images = 0;
  std::size_t num_correct = 0;
  /// Mean SimResult::decision_timestep -- with an early-exit policy, the
  /// measured anytime latency; otherwise the full readout window.
  double mean_decision_timesteps = 0.0;
};

/// How evaluate() runs the batch. Image i draws its noise from the private
/// stream Rng::for_stream(base_seed, i), so the BatchResult is a pure
/// function of (inputs, base_seed).
struct EvalOptions {
  std::uint64_t base_seed = 0;  ///< seed of the per-image noise streams
  DecisionPolicy policy;        ///< per-image anytime policy; off by default
};

/// The serial reference loop: runs image i as the ClassifyRequest
/// (base_seed, i) through execute_request() on the calling thread's warm
/// workspace and reduces in index order, so consecutive batches (the cells
/// of a sweep) allocate nothing once warm (tests/test_zero_alloc.cpp).
/// core::run_grid evaluates the same requests in parallel, bit for bit.
BatchResult evaluate(const SnnModel& model, const CodingScheme& scheme,
                     const std::vector<Tensor>& images,
                     const std::vector<std::size_t>& labels,
                     const NoiseModel* noise, const EvalOptions& options = {});

}  // namespace tsnn::snn
