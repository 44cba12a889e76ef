// Grid scheduler: the one evaluation engine under every noise sweep.
//
// run_grid() takes a flat stream of heterogeneous EvalCells -- each its own
// (model, scheme, noise stack, dataset, seed) -- and evaluates them as one
// task stream, serially on the calling thread or through one
// InferenceServer's workers (core/serve.h). Completed cells stream to
// GridOptions::on_cell in cell order while later cells still run. Results
// are bit-identical to a serial cell-by-cell run at any thread count: image
// i of every cell draws from Rng::for_stream(seed, i) and each cell reduces
// in image-index order (see docs/ARCHITECTURE.md, "Grid scheduler").
//
// core::ScenarioEngine (scenario.h) compiles declarative scenario suites --
// the paper's figures and tables among them -- onto run_grid(). The
// helpers it shares with perfbench/trace_replay live here too: MethodSpec
// (one figure-legend entry) and ScaledModelCache (one weight-scaled clone
// per distinct factor, shared by const reference across cells).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snn/coding_base.h"
#include "snn/simulator.h"
#include "snn/snn_model.h"

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
/// W' = C.W, where C multiplies 1/(1-p) over every deletion component of a
/// cell's noise stack. Jitter displaces charge in time but loses none, so a
/// "+WS" method under jitter alone intentionally runs unscaled (physics, not
/// a bug); ScenarioRow::ws_factor records the factor that actually ran.
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

/// Caches weight-scaled clones of a base model, one per distinct scaling
/// factor. get(1.0f) is the base model itself (no clone); the first get()
/// of any other factor clones + scales once, and every later request --
/// e.g. all methods of a scenario at the same deletion level -- shares that
/// clone (and its lazily built topology kernel caches) by const reference.
/// get() is not thread-safe: populate from one thread (the scenario engine
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

/// One cell of the grid scheduler: an independent evaluation of a (model,
/// scheme, noise stack) triple over a labeled image set. Every field may
/// vary per cell -- different datasets, different models, different seeds
/// -- so a whole multi-scenario suite can run as one flat task stream. All
/// pointers are borrowed and must outlive the run_grid() call; `noise` /
/// `input_noise` may be null (clean input).
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
/// count -- so N shard runs cover the grid exactly once and a merge in
/// cell order reassembles the unsharded output bit-identically
/// (bench/merge_shards). The default {0, 1} owns everything.
struct GridShard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// How run_grid schedules its cells. Results never depend on the thread
/// count, and cells are emitted in index order.
struct GridOptions {
  /// Workers of the call's InferenceServer; 0 = hardware concurrency, and
  /// a count that resolves to 1 runs the grid serially on the calling
  /// thread.
  std::size_t num_threads = 1;
  /// Called once per completed cell, in cell-index order, from the calling
  /// thread, while later cells may still be running.
  std::function<void(std::size_t cell, const EvalCellResult&)> on_cell;
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
std::vector<EvalCellResult> run_grid(const std::vector<EvalCell>& cells,
                                     const GridOptions& options = {});

}  // namespace tsnn::core
