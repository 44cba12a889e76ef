// Per-thread reusable simulation workspace.
//
// One SimWorkspace owns every piece of mutable scratch the per-image hot
// path needs -- the layer-to-layer EventBuffer ping-pong pair, the
// counting-sort scratch, the encoder state arrays, and one StageState
// (membrane potentials, burst's decoder state) per stage in flight. All
// members are
// grow-only: vectors are re-dimensioned with assign()/resize() which never
// release capacity, so after a warm-up image the steady state performs
// zero heap allocations per image (see docs/ARCHITECTURE.md,
// "Event buffers & the zero-allocation workspace").
//
// A workspace is single-threaded state: snn::evaluate keeps one on the
// calling thread, each core::InferenceServer worker keeps one for its pull
// loop, NoiseRobustPipeline keeps one for run(), and the raster-based
// CodingScheme adapters build a transient one per call. Sharing a
// workspace across concurrent simulations is a data race.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "snn/event_buffer.h"
#include "snn/topology.h"

namespace tsnn::snn {

/// Per-stage mutable state of one in-flight layer (or readout) run under
/// the stepped CodingScheme interface (begin_layer/step_layer/end_layer).
/// The whole-window run_layer_into/readout_into loops lease
/// SimWorkspace::seq; simulate_into leases one StageState per stage
/// (SimWorkspace::stage_state) so every stage of the wavefront holds its
/// own potentials, scratch, and output train concurrently. Grow-only, like
/// the workspace itself.
struct StageState {
  EventSortScratch sort;  ///< counting-sort scratch for out.finalize()
  EventBuffer out;        ///< stage output train (wavefront only; the
                          ///< whole-window loops emit into a caller buffer)

  /// Membrane potentials in the topology's accumulator layout
  /// (SynapseTopology::accum_layout); burst's counters share its indexing.
  aligned_vector<float> u;
  aligned_vector<std::uint32_t> k;     ///< burst escalation counters, by slot
  std::vector<std::int64_t> isi_last;  ///< burst ISI decoder: last arrival
  std::vector<std::uint32_t> isi_k;    ///< burst ISI decoder: run length
  aligned_vector<float> mag;  ///< burst ISI decoder: a step's magnitudes
  aligned_vector<std::uint32_t> fired;  ///< TTFS/TTAS floor-scan output

  /// Zeroed potential array of length `n` (recycles capacity).
  float* potentials(std::size_t n) {
    u.assign(n, 0.0f);
    return u.data();
  }

  /// Uninitialized fired-index scratch of capacity `n` for the TTFS/TTAS
  /// floor scan (recycles capacity). Rate, phase and burst scan straight
  /// into their output train (EventBuffer::append_step).
  std::uint32_t* fired_scratch(std::size_t n) {
    fired.resize(n);
    return fired.data();
  }
};

/// Reusable scratch of one simulation thread. Members are public: the
/// workspace is a bag of buffers with a single owner at a time, not an
/// abstraction boundary. `cur`/`next` are the simulator's layer ping-pong
/// pair; `acc`/`k`/`fired` are the encoders' scratch, and each stage's
/// state lives in a StageState.
struct SimWorkspace {
  EventBuffer cur;        ///< spike train entering the current stage
  EventBuffer next;       ///< spike train the current stage emits
  EventSortScratch sort;  ///< counting-sort / conversion scratch

  // The SIMD-streamed buffers (encoder charge and counters, the TTFS/TTAS
  // encoder's spiking ids) are aligned_vectors so the dispatch-table
  // kernels (simd/kernels.h) never split cache lines.
  aligned_vector<float> acc;            ///< encoder charge accumulators
  aligned_vector<std::uint32_t> k;      ///< burst escalation counters
  aligned_vector<std::uint32_t> fired;  ///< TTFS/TTAS encoder's spiking ids

  /// Uninitialized id scratch of capacity `n` for the TTFS/TTAS encoder
  /// (recycles capacity; the encoder writes it up to its count). Rate,
  /// phase and burst encoders scan straight into their output train.
  std::uint32_t* fired_scratch(std::size_t n) {
    fired.resize(n);
    return fired.data();
  }

  /// Pre-encoding input-corruption scratch: execute_request() writes the
  /// noise::InputNoiseModel output here so a corrupted request allocates
  /// nothing once warm (grow-only, like everything else in the workspace).
  Tensor input_scratch;

  /// Stage state leased by the whole-window run_layer_into/readout_into
  /// loops (strictly one stage in flight at a time, so one state suffices).
  StageState seq;

  /// Per-stage states for simulate_into (index = stage).
  /// unique_ptr for pointer/reference stability across pool growth; the
  /// pool only grows at a new high-water stage count, preserving the
  /// zero-allocation steady state.
  std::vector<std::unique_ptr<StageState>> stages;

  StageState& stage_state(std::size_t s) {
    while (stages.size() <= s) {
      stages.push_back(std::make_unique<StageState>());
    }
    return *stages[s];
  }
};

}  // namespace tsnn::snn
