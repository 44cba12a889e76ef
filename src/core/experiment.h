// Experiment harness: noise sweeps over methods.
//
// A "method" is a coding configuration (scheme + optional weight scaling),
// matching the legend entries of the paper's figures ("Burst+WS",
// "TTAS(5)+WS", ...). Sweeps evaluate each method at each noise level and
// return rows the benches print / write to CSV. Weight scaling uses the
// *actual* noise level of each sweep point, as the paper sets C
// proportional to the deletion probability.
//
// Sweeps run on a grid scheduler: the whole (method x level x image) grid
// is flattened into one task stream over a single ThreadPool that lives for
// the entire sweep, the unscaled model is shared by const reference with
// scaled clones cached once per distinct weight-scaling factor
// (ScaledModelCache), and completed rows stream to SweepOptions::on_row in
// grid order as cells finish. Results are bit-identical to a serial
// cell-by-cell run at any thread count: image i of every cell draws from
// Rng::for_stream(seed, i) and each cell reduces in image-index order (see
// docs/ARCHITECTURE.md, "Sweep engine").
//
// The scheduler itself is exposed as run_grid(): a flat stream of
// heterogeneous EvalCells -- each its own (model, scheme, noise stack,
// dataset, seed) -- evaluated as one task stream over one pool. The sweeps
// compile onto it, and core::ScenarioEngine (scenario.h) compiles whole
// multi-dataset scenario suites onto it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snn/coding_base.h"
#include "snn/simulator.h"
#include "snn/snn_model.h"

namespace tsnn {
class ThreadPool;
}

namespace tsnn::snn {
class NoiseModel;
}

namespace tsnn::noise {
class InputNoiseModel;
}

namespace tsnn::core {

/// One figure-legend entry.
///
/// `weight_scaling` opts the method into the paper's deletion compensation
/// W' = C.W with C = 1/(1-p): it applies only in *deletion* sweeps at
/// levels p > 0, because jitter displaces charge in time but loses none --
/// there is nothing for WS to compensate. A "+WS" method in a jitter sweep
/// therefore intentionally runs unscaled (physics, not a bug); the returned
/// rows record the effective factor in SweepRow::ws_factor (1.0 = unscaled)
/// so API consumers can tell what actually ran. (The bench CSV/JSON keep
/// their historical columns and do not carry ws_factor -- the label alone
/// still names the method spec, not the scaling that applied.)
struct MethodSpec {
  std::string label;
  snn::Coding coding = snn::Coding::kRate;
  snn::CodingParams params;
  bool weight_scaling = false;
};

/// Baseline method ("rate", "phase", ...) with registry defaults; `ws`
/// appends "+WS" and enables weight scaling.
MethodSpec baseline_method(snn::Coding coding, bool ws);

/// TTAS(t_a) method; `ws` as above.
MethodSpec ttas_method(std::size_t burst_duration, bool ws);

/// One sweep measurement.
struct SweepRow {
  std::string method;
  double level = 0.0;       ///< deletion p or jitter sigma (0 = clean)
  double accuracy = 0.0;    ///< fraction in [0,1]
  double mean_spikes = 0.0; ///< spikes per image across the whole network
  double ws_factor = 1.0;   ///< weight scaling actually applied (1 = none)
  /// Mean readout timesteps to decision; the full window unless an
  /// early-exit DecisionPolicy is active (anytime inference).
  double mean_decision_timesteps = 0.0;
};

/// Evaluation inputs shared by the sweeps.
struct SweepInputs {
  const snn::SnnModel* model = nullptr;           ///< converted, unscaled
  const std::vector<Tensor>* images = nullptr;
  const std::vector<std::size_t>* labels = nullptr;
  std::uint64_t seed = 0xBEEF;  ///< base of the per-image noise streams
  std::size_t num_threads = 1;  ///< evaluation workers; 0 = hardware
};

/// How the grid scheduler runs a sweep. Results never depend on either
/// knob -- rows are bit-identical and arrive in grid order (method-major,
/// then level) regardless of pool size or cell completion order.
struct SweepOptions {
  /// External persistent pool; the sweep borrows it instead of spawning its
  /// own, so per-worker SimWorkspaces (and the pool threads) stay warm
  /// across consecutive sweeps. Null = the engine creates one pool sized by
  /// SweepInputs::num_threads that lives for the whole sweep.
  ThreadPool* pool = nullptr;
  /// Called once per completed cell, in grid order, from the sweeping
  /// thread -- the streaming hook the benches use to write CSV rows
  /// incrementally while later cells are still running.
  std::function<void(const SweepRow&)> on_row;
};

/// Caches weight-scaled clones of a base model, one per distinct scaling
/// factor. get(1.0f) is the base model itself (no clone); the first get()
/// of any other factor clones + scales once, and every later request --
/// e.g. all methods of a sweep at the same deletion level -- shares that
/// clone (and its lazily built topology kernel caches) by const reference.
/// get() is not thread-safe: populate from one thread (the sweep engine
/// resolves every cell's model up front), then share the returned models
/// freely across evaluation threads.
class ScaledModelCache {
 public:
  explicit ScaledModelCache(const snn::SnnModel& base) : base_(&base) {}

  /// The model with all weights scaled by `factor`; cached after the first
  /// request.
  const snn::SnnModel& get(float factor);

  /// Number of scaled clones materialized so far (excludes the base).
  std::size_t num_clones() const { return clones_.size(); }

 private:
  const snn::SnnModel* base_;
  std::vector<std::pair<float, std::unique_ptr<snn::SnnModel>>> clones_;
};

/// One generalized cell of the grid scheduler: an independent evaluation of
/// a (model, scheme, noise stack) triple over a labeled image set. Unlike
/// the sweep cells, every field may vary per cell -- different datasets,
/// different models, different seeds -- so a whole multi-scenario suite can
/// run as one flat task stream. All pointers are borrowed and must outlive
/// the run_grid() call; `noise` / `input_noise` may be null (clean input).
struct EvalCell {
  const snn::SnnModel* model = nullptr;
  const snn::CodingScheme* scheme = nullptr;
  /// Spike-train corruption applied to every layer's output (null = clean).
  const snn::NoiseModel* noise = nullptr;
  /// Pre-encoding image corruption (null = none). Applied before `noise`,
  /// drawing from the same per-image stream first -- one deterministic
  /// draw order per image regardless of stack shape.
  const noise::InputNoiseModel* input_noise = nullptr;
  const std::vector<Tensor>* images = nullptr;
  const std::vector<std::size_t>* labels = nullptr;
  std::uint64_t seed = 0;  ///< image i draws from Rng::for_stream(seed, i)
  /// Anytime-inference policy for every image of this cell (off = every
  /// image consumes its full readout window).
  snn::DecisionPolicy policy;
};

/// Reduction of one completed cell (image-index order, so results are
/// bit-identical at any thread count).
struct EvalCellResult {
  double accuracy = 0.0;
  double mean_spikes = 0.0;
  double mean_decision_timesteps = 0.0;
};

/// Deterministic partition of a grid for multi-process fan-out: shard
/// {i, N} owns exactly the cells whose index satisfies cell % N == i. The
/// partition is a pure function of the cell index -- stable under thread
/// count, micro-batch, and pool choice -- so N shard runs cover the grid
/// exactly once and a merge in cell order reassembles the unsharded output
/// bit-identically (bench/merge_shards). The default {0, 1} owns everything.
struct GridShard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// How run_grid schedules its cells; same guarantees as SweepOptions
/// (results never depend on either knob, cells complete in index order).
struct GridOptions {
  /// External persistent pool (borrowed); null = run_grid creates one sized
  /// by `num_threads` for the duration of the call.
  ThreadPool* pool = nullptr;
  /// Workers when no pool is given; 0 = hardware concurrency, <= 1 runs
  /// the grid serially on the calling thread.
  std::size_t num_threads = 1;
  /// Called once per completed cell, in cell-index order, from the calling
  /// thread, while later cells may still be running.
  std::function<void(std::size_t cell, const EvalCellResult&)> on_cell;
  /// Micro-batch size for the parallel path's InferenceServer (how many
  /// (cell, image) requests a worker pops per pull). Pure scheduling: the
  /// rows are bit-identical at any value (tests/test_experiment.cpp pins
  /// {1, 3, 64}).
  std::size_t micro_batch = 8;
  /// Which slice of the grid this process runs. Cells outside the shard
  /// never execute and never reach on_cell; their results slot stays
  /// default-initialized.
  GridShard shard;
  /// Checkpoint/resume hook: consulted once per owned cell, in cell order,
  /// on the calling thread before any evaluation starts. Return true and
  /// fill `*result` with the cell's known outcome to skip its execution;
  /// the injected result still flows through on_cell in cell order exactly
  /// like a freshly computed one, so resuming is invisible downstream.
  std::function<bool(std::size_t cell, EvalCellResult* result)> completed;
};

/// Evaluates every owned cell (cells may have *different* image sets and
/// counts) as one flat cell-major task stream and returns per-cell results
/// indexed by cell (cells outside options.shard are default-initialized).
/// The engine under the sweeps and the scenario engine.
std::vector<EvalCellResult> run_grid(const std::vector<EvalCell>& cells,
                                     const GridOptions& options = {});

/// Accuracy/spikes of every method at every deletion probability.
/// `levels` may include 0.0 for the clean point.
std::vector<SweepRow> deletion_sweep(const SweepInputs& in,
                                     const std::vector<MethodSpec>& methods,
                                     const std::vector<double>& levels,
                                     const SweepOptions& options = {});

/// Accuracy/spikes of every method at every jitter intensity.
std::vector<SweepRow> jitter_sweep(const SweepInputs& in,
                                   const std::vector<MethodSpec>& methods,
                                   const std::vector<double>& levels,
                                   const SweepOptions& options = {});

/// Convenience: rows of one method, in level order.
std::vector<SweepRow> rows_for(const std::vector<SweepRow>& rows,
                               const std::string& method);

}  // namespace tsnn::core
