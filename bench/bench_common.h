// Shared harness for the bench CLIs.
//
// run_scenarios regenerates the paper's figures and tables (the "paper"
// suite), and the remaining benches run analyses and ablations: each loads
// (or trains on first use) the zoo model for its dataset, converts it once,
// prints a paper-style table, and writes machine-readable CSV into
// TSNN_BENCH_OUT (default ./bench_results).
//
// Knobs (flag overrides environment overrides default):
//   --images N   / TSNN_BENCH_IMAGES   test images per configuration  (40)
//   --seed S     / TSNN_BENCH_SEED     base noise seed                (0xBEEF)
//   --threads N  / TSNN_BENCH_THREADS  evaluation workers, 0 = all    (1)
//   --out DIR    / TSNN_BENCH_OUT      CSV output directory  (./bench_results)
//   --json PATH  / TSNN_BENCH_JSON     also write results as JSON to PATH
//                                      (CI perf-tracking artifacts)
//                  TSNN_ZOO_DIR        model cache (see core/zoo.h)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "report/csv.h"
#include "snn/simulator.h"

namespace tsnn::bench {

/// Prints a CLI's usage text for `prog` -- to stdout when `exit_code` is
/// 0 (`--help`), to stderr otherwise -- and exits with `exit_code`.
using UsageFn = void (*)(const char* prog, int exit_code);

/// Parses the shared bench flags (--images, --seed, --threads, --out; see
/// file comment) and reads TSNN_BENCH_IMAGES/_SEED/_THREADS through the
/// same validation as the flags, in base 10. Call first in every bench
/// main. Unknown arguments and bad values print the problem and exit 2
/// through `usage` (null = the shared bench flags above), so a tool with
/// flags of its own passes its own usage; `--help` exits 0 through it.
void init(int argc, char** argv, UsageFn usage = nullptr);

/// The numeric flag parsers every bench CLI shares. `value` is the text
/// after `flag` (null when the flag came last); integers accept any base
/// prefix strtoll does (0x..). A missing, non-numeric, out-of-range or
/// negative (for integers: unless `allow_negative`) value prints the
/// problem and exits 2 through `usage` (null = the shared bench flags).
std::int64_t parse_int_arg(const char* prog, const char* flag,
                           const char* value, bool allow_negative,
                           UsageFn usage = nullptr);
double parse_double_arg(const char* prog, const char* flag, const char* value,
                        UsageFn usage = nullptr);

/// Number of evaluation images per configuration (--images).
std::size_t bench_images();

/// Base noise seed; image i draws from Rng::for_stream(seed, i) (--seed).
std::uint64_t bench_seed();

/// Evaluation worker threads, 0 meaning hardware concurrency (--threads).
std::size_t bench_threads();

/// Loads/trains the zoo model for `kind`, converts it, and slices the test
/// set down to bench_images() samples (core::load_zoo_workload, the recipe
/// the scenario engine uses too).
core::ZooWorkload prepare_workload(core::DatasetKind kind);

/// JSON results path (--json / TSNN_BENCH_JSON); empty when unset.
std::string bench_json();

/// Records a named scalar metric (e.g. "images_per_sec") to be emitted in
/// the "metrics" object of the JSON document SweepReport::finish writes.
/// Re-recording a name overwrites its value; record before finish() so the
/// document CI keeps carries them all. Used by the perf-smoke job to track
/// end-to-end simulation throughput across PRs.
void record_metric(const std::string& name, double value);

/// Sets the early-exit provenance label emitted alongside "isa" in the JSON
/// document ("off" by default -- the bit-identical reference path). Pass
/// snn::DecisionPolicy::describe() when a bench runs one fixed policy, or a
/// free-form label like "margin:sweep" when the policy varies per row.
void record_early_exit(const std::string& label);

/// Streaming result sink for sweep benches. Construction opens
/// TSNN_BENCH_OUT/<name>.csv (header written immediately; failure degrades
/// to a warning and the bench runs CSV-less); add_row() appends each
/// completed row to the CSV, so the file fills while the bench runs.
/// finish() emits the JSON document (--json) from all added rows and prints
/// the csv/json paths; call it once, last.
class SweepReport {
 public:
  SweepReport(std::string name, std::string level_name);

  /// Streams one row (the dataset field is not written).
  void add_row(const core::ScenarioRow& row);

  void finish();

 private:
  std::string name_;
  std::string level_name_;
  std::unique_ptr<report::CsvStream> csv_;  ///< null if the open failed
  std::vector<core::ScenarioRow> rows_;
};

/// Accuracy as "93.25" (percent, two decimals).
std::string pct(double accuracy);

/// Column headers of the sweep CSV documents ("method", level_name,
/// "accuracy", "mean_spikes", "mean_decision_timesteps") -- shared by
/// SweepReport, run_scenarios and merge_shards so every sweep CSV has one
/// format.
std::vector<std::string> sweep_csv_headers(const std::string& level_name);

/// One scenario row in sweep-CSV form (the bytes on disk); the method label
/// gets a "<dataset>/" prefix when the scenario spans several datasets --
/// shared by run_scenarios, merge_shards and SweepReport so a merged CSV is
/// byte-identical to a directly-written one.
std::vector<std::string> sweep_csv_cells(const core::ScenarioRow& row,
                                         bool prefix_dataset);

/// Creates TSNN_BENCH_OUT (if needed) and returns TSNN_BENCH_OUT/<name>.csv,
/// or "" if the directory cannot be created (warned; callers run CSV-less).
std::string csv_output_path(const std::string& name);

/// Suite-level timing of a scenario run. Everything here lands in the
/// trailing "metrics" object of the suite JSON -- the only part of the
/// document allowed to differ between an uninterrupted run, a resumed run,
/// and a shard merge (the CI identity checks strip it before byte-diffing).
/// images_per_sec is sweep-only (images_executed / sweep_seconds): zoo
/// preparation is reported separately and resumed/injected cells do not
/// count as executed work.
struct ScenarioSuiteMetrics {
  double seconds = 0.0;             ///< total wall (zoo prep + sweep)
  double sweep_seconds = 0.0;       ///< grid evaluation only
  std::size_t images_executed = 0;  ///< actually simulated by this process
  core::ScenarioEngine::ZooPrepStats zoo;
};

/// Writes the scenario-suite JSON document to bench_json() (no-op when
/// unset). Shared by run_scenarios and merge_shards, so a merged or resumed
/// document is byte-identical to the uninterrupted unsharded one outside
/// "metrics".
void write_scenario_suite_json(
    const std::string& suite_label,
    const std::vector<core::ScenarioSpec>& specs,
    const std::vector<core::ScenarioResult>& results,
    const ScenarioSuiteMetrics& metrics);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

/// Latency accumulator for the serve benches: record per-request latencies
/// in microseconds, then summarize() the tail (nearest-rank percentiles
/// over a sorted copy -- recording stays O(1) per sample on the hot path).
/// Single-threaded: callers aggregate from one thread (serve_loadgen's
/// response reader) or merge per-thread instances themselves.
class LatencyStats {
 public:
  void record(double micros) { samples_.push_back(micros); }

  std::size_t count() const { return samples_.size(); }

  struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  /// Percentile summary of everything recorded so far (all zeros when
  /// empty). Nearest-rank: pK = the ceil(K/100 * n)-th smallest sample.
  Summary summarize() const;

  /// The Summary as a JSON object string, e.g.
  /// {"count":100,"mean_us":12.0,"p50_us":11.0,...} -- the BENCH_serve.json
  /// building block.
  static std::string json(const Summary& s);

 private:
  std::vector<double> samples_;
};

}  // namespace tsnn::bench
