// Declarative scenario engine over the grid scheduler.
//
// A ScenarioSpec names one robustness experiment declaratively -- which
// datasets, which coding/mitigation methods, which ordered noise stack, and
// which level grid -- and the ScenarioEngine compiles a whole *suite* of
// specs into a single run_grid() task stream (core/experiment.h): one
// set of workers, one scaled-model cache per dataset, rows streaming back
// in deterministic grid order while later cells still run. The paper's
// experiments are data: the built-in "paper" suite holds the fig2-8/
// table1-2 sweep cells, and new suites (device catalogs, mixed noise
// stacks the paper never ran) are a text file away.
//
// Spec text format (INI-ish key=value, '#' comments, one [scenario] section
// per spec; ScenarioSpec::parse / parse_scenarios, no dependencies):
//
//   [scenario]
//   name = stress_triple_stack
//   datasets = s-mnist, s-cifar10        # zoo names or provider-resolved
//   methods = rate+WS, ttfs, ttas(5)+WS  # coding [+WS]; ttas(t_a) = TTAS
//   noise = input:0.05, deletion:sweep, jitter:0.5
//   levels = 0, 0.1, 0.3, 0.5, 0.7      # grid of the "sweep" layer
//   images = 40                          # optional; engine default if absent
//   seed = 48879                         # optional; engine default if absent
//   early_exit = margin:0.2, min:4       # optional anytime policy (any of
//                                        # margin:M, min:N, deadline:D, or
//                                        # "off"); default off
//
// The noise stack is an *ordered* list (CompositeNoise's ordering contract,
// noise/noise.h): layers apply left to right. Layer kinds:
//   deletion:P      spike deletion, P in [0,1]
//   jitter:S        spike-timing jitter, sigma >= 0 timesteps
//   input:S         Gaussian input noise (pre-encoding), sigma >= 0
//   saltpepper:R    salt-and-pepper input noise (pre-encoding), R in [0,1]
//   device:NAME     a noise::device_catalog() profile (its deletion then
//                   jitter component, in that order)
// Exactly one layer may take the value "sweep" -- it reads its magnitude
// from the level grid (for device:sweep the grid enumerates the whole
// catalog and `levels` stays empty). Input-noise layers corrupt the image
// before encoding, drawing from the per-image rng stream first; spike
// layers corrupt every layer's output train, in stack order.
//
// Mitigation is encoded in the method label: "+WS" opts into the paper's
// deletion compensation W' = C.W, where C multiplies 1/(1-p) over every
// deletion component of the resolved stack at that grid point (a plain
// deletion sweep therefore scales by weight_scaling_factor(p) exactly, and
// a device profile gets the compensation tuned to its loss rate); TTAS is
// itself a coding ("ttas(5)"). Jitter-only stacks yield C = 1 -- jitter
// displaces charge but loses none.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convert/converter.h"
#include "core/experiment.h"
#include "core/zoo.h"

namespace tsnn::core {

/// One layer of a scenario's ordered noise stack.
struct NoiseLayerSpec {
  enum class Kind { kDeletion, kJitter, kInput, kSaltPepper, kDevice };
  Kind kind = Kind::kDeletion;
  double value = 0.0;   ///< p / sigma / rate; unused for kDevice
  std::string device;   ///< kDevice only: catalog profile name
  bool swept = false;   ///< reads its value from the scenario's level grid

  bool operator==(const NoiseLayerSpec&) const = default;
};

/// A declarative robustness scenario; see the file comment for the text
/// grammar. Every spec compiles to |datasets| x |methods| x |levels| grid
/// cells.
struct ScenarioSpec {
  std::string name;
  std::vector<std::string> datasets;
  std::vector<MethodSpec> methods;
  std::vector<NoiseLayerSpec> noise;  ///< ordered stack; empty = clean
  std::vector<double> levels;         ///< grid of the swept layer
  std::size_t images = 0;             ///< 0 = engine default
  std::uint64_t seed = 0;             ///< meaningful iff has_seed
  bool has_seed = false;
  /// Anytime-inference policy applied to every cell of the scenario. Text
  /// key `early_exit = margin:0.2, min:4, deadline:32` (any subset; or
  /// `off`) -- DecisionPolicy::describe()'s format, so specs round-trip.
  /// Off by default: every image consumes its full readout window.
  snn::DecisionPolicy early_exit;

  /// Parses exactly one scenario (with or without a leading [scenario]
  /// header); throws InvalidArgument with a line diagnostic on any error.
  static ScenarioSpec parse(const std::string& text);

  /// Canonical text form; parse(to_text()) round-trips every field.
  std::string to_text() const;

  /// Index of the swept noise layer, or npos when the scenario is a single
  /// grid point per (dataset, method).
  static constexpr std::size_t kNoSweep = static_cast<std::size_t>(-1);
  std::size_t swept_layer() const;

  /// Column name of the swept magnitude: "p" (deletion), "sigma" (jitter),
  /// "sigma_in" / "rate_in" (input noise), "device" (catalog index), or
  /// "level" for sweep-less scenarios.
  std::string level_name() const;

  /// The level columns the scenario compiles to, in grid order: `levels`,
  /// the device catalog's indices for device:sweep, or one clean column
  /// (0) when there are neither.
  std::vector<double> level_grid() const;
};

/// Parses a suite: one spec per [scenario] section. Throws InvalidArgument
/// (with line numbers) on malformed text.
std::vector<ScenarioSpec> parse_scenarios(const std::string& text);

/// Parses a single method label ("rate", "burst+WS", "ttas(5)+WS", ...) --
/// the inverse of the label convention of baseline_method / ttas_method.
MethodSpec parse_method_label(const std::string& label);

/// Built-in suites: "paper" (the fig2-8/table1-2 sweep cells), "devices"
/// (the whole device catalog across all three zoo models), "stress" (mixed
/// deletion+jitter+input stacks the paper never ran). The suites are
/// authored as spec text and go through the same parser as user files.
std::vector<ScenarioSpec> builtin_suite(const std::string& name);
const std::vector<std::string>& builtin_suite_names();

/// A converted, evaluation-ready zoo workload -- the dataset-loading step
/// the benches and the scenario engine share (identical calibration slice,
/// identical test-set slice, so their results are comparable bit-for-bit).
struct ZooWorkload {
  DatasetKind kind = DatasetKind::kMnistLike;
  double dnn_accuracy = 0.0;  ///< source DNN accuracy on the test split
  convert::Conversion conversion;
  std::vector<Tensor> test_images;
  std::vector<std::size_t> test_labels;
  bool from_artifact_cache = false;  ///< conversion served from a TSNZ file
  /// Wall time spent preparing: on a hit, the artifact load plus rendering
  /// the kept test prefix; on a miss, the whole dataset plus training or
  /// loading the DNN and converting.
  double prep_seconds = 0.0;
};

/// Loads the zoo workload for `kind` through the TSNZ artifact cache
/// (core::load_converted, then core::convert_and_cache on a miss): an
/// artifact hit skips training, conversion and DNN evaluation, and renders
/// no train image and only the first `max_images` test images; a miss
/// generates the full dataset, trains/loads the source DNN, converts with
/// the standard 100-image calibration slice, and repairs the cache. Keeps
/// the first `max_images` test samples either way, pixel-identical between
/// the two.
ZooWorkload load_zoo_workload(DatasetKind kind, std::size_t max_images);

/// One completed scenario grid cell.
struct ScenarioRow {
  std::string dataset;  ///< dataset name as given in the spec
  std::string method;   ///< method label (no dataset prefix)
  double level = 0.0;   ///< swept magnitude (catalog index for device:sweep)
  std::string noise;    ///< resolved stack, e.g. "deletion(p=0.50)+jitter(sigma=1.00)"
  double accuracy = 0.0;
  double mean_spikes = 0.0;
  double ws_factor = 1.0;  ///< weight scaling actually applied (1 = none)
  /// Mean readout timesteps to decision -- the full window unless the
  /// scenario's early_exit policy is active.
  double mean_decision_timesteps = 0.0;
};

/// All rows of one scenario, in grid order (dataset-major, then method,
/// then level -- the bench sweep convention).
struct ScenarioResult {
  std::string name;
  std::string level_name;
  std::size_t num_datasets = 0;
  std::vector<ScenarioRow> rows;
  std::size_t images_simulated = 0;  ///< one count per (cell, image) pair
};

/// The compile-time identity of one grid cell of a suite: everything a
/// checkpoint needs to recognize the cell again on resume without
/// re-running it. ScenarioEngine::plan() returns these in the exact global
/// cell order run() schedules -- scenario-major, then dataset, then method,
/// then level -- which is also the order GridShard partitions.
struct CellPlan {
  std::size_t scenario = 0;  ///< index into the suite
  std::size_t images = 0;    ///< resolved image count of the cell
  std::uint64_t seed = 0;    ///< resolved base seed
  /// Row skeleton: dataset/method/level/noise/ws_factor filled, the
  /// measured fields (accuracy/spikes/decision timesteps) zero.
  ScenarioRow row;
};

/// Non-owning view of an evaluation-ready workload a provider returns; the
/// provider owns the storage for at least the duration of run().
struct ScenarioWorkload {
  const snn::SnnModel* model = nullptr;
  const std::vector<Tensor>* images = nullptr;
  const std::vector<std::size_t>* labels = nullptr;
};

/// Compiles scenario suites onto the grid scheduler and runs them.
///
/// The engine caches zoo workloads (and their weight-scaled model clones)
/// across run() calls -- one conversion per dataset, holding the longest
/// test prefix any suite has asked for (each compile loads or grows it to
/// the suite's largest image count for that dataset), with per-image-count
/// slices of it layered on top -- so consecutive suites over the same
/// datasets pay conversion once. Results carry the run_grid() determinism
/// guarantee: rows are bit-identical at any thread count and stream to
/// `on_cell` in grid order while later cells run.
class ScenarioEngine {
 public:
  struct Options {
    std::size_t default_images = 40;     ///< for specs with images = 0
    std::uint64_t default_seed = 0xBEEF; ///< for specs without a seed
    std::size_t num_threads = 1;         ///< 0 = hardware concurrency
    /// Resolves dataset names the zoo does not know (tests inject tiny
    /// fixtures; services inject live datasets). Return a view with a null
    /// model to fall through to the zoo loader.
    std::function<ScenarioWorkload(const std::string& dataset,
                                   std::size_t images)>
        workload_provider;
    /// Streamed once per completed cell, in grid order, from the calling
    /// thread, with the global cell index (the plan()/checkpoint
    /// coordinate). Fires for every emitted row, including resume-injected
    /// ones.
    std::function<void(std::size_t cell, std::size_t scenario,
                       const ScenarioRow&)>
        on_cell;
    /// Which slice of the compiled grid this process runs (run_grid's
    /// GridShard contract); default runs everything.
    GridShard shard;
    /// Resume hook forwarded to GridOptions::completed: return true and
    /// fill `*result` to inject a cell's known outcome instead of
    /// re-evaluating it. Cell indices match plan().
    std::function<bool(std::size_t cell, EvalCellResult* result)> completed;
  };

  /// Zoo-preparation accounting across run() calls: wall seconds spent in
  /// load_zoo_workload and in growing a cached test prefix, how many
  /// datasets were loaded through the zoo (once each; growing a prefix is
  /// not a load), and how many of those were served from the TSNZ artifact
  /// cache.
  struct ZooPrepStats {
    double seconds = 0.0;
    std::size_t loads = 0;
    std::size_t artifact_hits = 0;
  };

  ScenarioEngine();  ///< default Options
  explicit ScenarioEngine(Options options);
  ~ScenarioEngine();

  const ZooPrepStats& zoo_prep() const { return zoo_prep_; }

  /// Runs every scenario of `suite` as ONE flat task stream (one run_grid
  /// call); returns per-scenario results in suite order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& suite);

  /// Compiles `suite` without running it and returns the per-cell plan in
  /// global cell order -- the coordinate system checkpoints, shards, and
  /// the merge tool share. Resolves (and caches) every workload, so the
  /// zoo-preparation cost is paid here and a following run() starts warm.
  std::vector<CellPlan> plan(const std::vector<ScenarioSpec>& suite);

  /// Convenience wrapper for a single spec.
  ScenarioResult run_one(const ScenarioSpec& spec);

 private:
  struct CachedWorkload;
  struct Compiled;

  std::unique_ptr<Compiled> compile(const std::vector<ScenarioSpec>& suite);

  /// The view of `images` images of `dataset`; a zoo dataset is loaded,
  /// or its cached prefix grown, to `prepare` images first.
  ScenarioWorkload resolve_workload(const std::string& dataset,
                                    std::size_t images, std::size_t prepare);

  Options options_;
  std::map<std::string, std::unique_ptr<CachedWorkload>> workloads_;
  ZooPrepStats zoo_prep_;
};

}  // namespace tsnn::core
