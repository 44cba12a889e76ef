// Reassembles a sharded run_scenarios run into the files an unsharded run
// would have written.
//
//   $ ./run_scenarios --suite devices --shard 0/2 --out shard0 &
//   $ ./run_scenarios --suite devices --shard 1/2 --out shard1 &
//   $ wait
//   $ ./merge_shards --suite devices shard0 shard1 --out merged
//
// Shard directories are positional and MUST be listed in shard order
// (DIR_i holds shard i/N, N = the directory count). Each one contributes
// its checkpoint.csv -- the full-precision sidecar run_scenarios streams
// -- so the merged per-scenario CSVs, the merged checkpoint, and the JSON
// document (everything outside "metrics") are byte-identical to an
// unsharded run with the same suite and flags.
//
// The merge refuses partial work: a torn shard checkpoint means that shard
// was interrupted (finish it with --resume first), a coverage hole means a
// shard is missing or incomplete, and a cell in the wrong directory means
// the directories were listed out of order.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/scenario.h"
#include "report/csv.h"

namespace {

using namespace tsnn;

[[noreturn]] void usage(const char* prog, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s [--suite NAME | --file PATH] DIR0 DIR1 ...\n"
               "          [--images N] [--seed S] [--out DIR] [--json PATH]\n"
               "  DIR_i         output directory of the shard i/N run\n"
               "                (positional, in shard order; N = dir count)\n"
               "  --suite NAME  built-in suite the shards ran: %s\n"
               "                (default paper)\n"
               "  --file PATH   scenario spec file the shards ran\n"
               "  --images/--seed must match the shard runs: the merge\n"
               "  validates every record against the suite's cell plan\n",
               prog, str::join(core::builtin_suite_names(), ", ").c_str());
  std::exit(exit_code);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot read scenario file: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The grid-cell coordinates a suite compiles to, derived from the specs
/// alone (no zoo, no model load): scenario-major, then dataset, method,
/// level -- the exact loop order of ScenarioEngine::compile. Used to
/// validate that the shard checkpoints really came from this suite and
/// that together they cover the whole grid.
struct StaticCell {
  std::size_t scenario = 0;
  std::string dataset;
  std::string method;
  double level = 0.0;
};

std::vector<StaticCell> static_cells(
    const std::vector<core::ScenarioSpec>& specs) {
  std::vector<StaticCell> out;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const core::ScenarioSpec& spec = specs[s];
    const std::vector<double> levels = spec.level_grid();
    for (const std::string& dataset : spec.datasets) {
      for (const core::MethodSpec& method : spec.methods) {
        for (const double level : levels) {
          out.push_back({s, dataset, method.label, level});
        }
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsnn;

  // Bench flags that take a value: skip their operand when splitting the
  // command line into shard directories vs pass-through flags.
  const auto takes_value = [](const char* flag) {
    for (const char* v : {"--images", "--seed", "--threads", "--out",
                          "--json"}) {
      if (std::strcmp(flag, v) == 0) {
        return true;
      }
    }
    return false;
  };

  std::string suite = "paper";
  std::string file;
  std::vector<std::string> shard_dirs;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--file") == 0 && i + 1 < argc) {
      file = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      bench_args.push_back(argv[i]);
      if (takes_value(argv[i]) && i + 1 < argc) {
        bench_args.push_back(argv[++i]);
      }
    } else {
      shard_dirs.push_back(argv[i]);
    }
  }
  bench::init(static_cast<int>(bench_args.size()), bench_args.data(), usage);
  if (shard_dirs.empty()) {
    std::fprintf(stderr, "no shard directories given\n");
    usage(argv[0], 2);
  }

  const Stopwatch total_timer;

  std::vector<core::ScenarioSpec> specs;
  std::string suite_label;
  try {
    if (!file.empty()) {
      specs = core::parse_scenarios(read_file(file));
      suite_label = file;
    } else {
      specs = core::builtin_suite(suite);
      suite_label = suite;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0], 2);
  }

  std::vector<core::CheckpointRecord> merged;
  try {
    std::vector<std::vector<core::CheckpointRecord>> shards;
    shards.reserve(shard_dirs.size());
    for (std::size_t i = 0; i < shard_dirs.size(); ++i) {
      const std::string path =
          (std::filesystem::path(shard_dirs[i]) / "checkpoint.csv").string();
      if (!std::filesystem::exists(path)) {
        throw IoError("shard " + std::to_string(i) + ": no checkpoint at " +
                      path);
      }
      core::CheckpointFile file_i = core::read_checkpoint_file(path);
      if (file_i.torn_tail) {
        throw IoError("shard " + std::to_string(i) + ": " + path +
                      " ends in a torn record -- that shard was "
                      "interrupted; finish it with --resume first");
      }
      shards.push_back(std::move(file_i.records));
    }
    merged = core::merge_shard_records(shards);

    // The records cover cells 0..total-1 with no holes (merge_shard_records
    // proved that); now pin them to THIS suite's grid.
    const std::vector<StaticCell> plan = static_cells(specs);
    if (merged.size() != plan.size()) {
      throw IoError("suite '" + suite_label + "' compiles to " +
                    std::to_string(plan.size()) + " cells but the shards " +
                    "cover " + std::to_string(merged.size()) +
                    " (different suite or spec file?)");
    }
    for (std::size_t c = 0; c < merged.size(); ++c) {
      const core::CheckpointRecord& rec = merged[c];
      const StaticCell& want = plan[c];
      if (rec.scenario != want.scenario || rec.row.dataset != want.dataset ||
          rec.row.method != want.method || rec.row.level != want.level) {
        throw IoError(
            "cell " + std::to_string(c) + " is " + rec.row.dataset + "/" +
            rec.row.method + " level " + str::round_trip(rec.row.level) +
            " in the shards but the suite plans " + want.dataset + "/" +
            want.method + " level " + str::round_trip(want.level) +
            " (different suite, spec file, or flags?)");
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("merged %zu cell(s) from %zu shard(s) of suite %s\n",
              merged.size(), shard_dirs.size(), suite_label.c_str());

  // Rebuild the per-scenario results in cell order (cells are
  // scenario-major, so this IS the unsharded emission order).
  std::vector<core::ScenarioResult> results(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    results[s].name = specs[s].name;
    results[s].level_name = specs[s].level_name();
    results[s].num_datasets = specs[s].datasets.size();
  }
  for (const core::CheckpointRecord& rec : merged) {
    results[rec.scenario].rows.push_back(rec.row);
    results[rec.scenario].images_simulated += rec.images;
  }

  // Merged per-scenario CSVs + the merged checkpoint, byte-identical to an
  // unsharded run's files.
  int status = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string path = bench::csv_output_path(specs[s].name);
    if (path.empty()) {
      continue;
    }
    try {
      report::CsvStream stream(
          path, bench::sweep_csv_headers(specs[s].level_name()));
      for (const core::ScenarioRow& row : results[s].rows) {
        stream.add_row(
            bench::sweep_csv_cells(row, specs[s].datasets.size() > 1));
      }
      std::printf("csv: %s\n", path.c_str());
    } catch (const IoError& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
      status = 1;
    }
  }
  const std::string ckpt_path = bench::csv_output_path("checkpoint");
  if (!ckpt_path.empty()) {
    try {
      report::CsvStream stream(ckpt_path, core::checkpoint_headers());
      for (const core::CheckpointRecord& rec : merged) {
        core::CellPlan plan;
        plan.scenario = rec.scenario;
        plan.images = rec.images;
        plan.seed = rec.seed;
        stream.add_row(core::checkpoint_cells(rec.cell, plan, rec.row));
      }
      std::printf("checkpoint: %s\n", ckpt_path.c_str());
    } catch (const IoError& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
      status = 1;
    }
  }

  // No simulation happened here: sweep_seconds and images_executed are
  // zero, and the zoo was never touched. Only "seconds" carries the merge
  // cost -- all of it inside the metrics object identity checks strip.
  bench::ScenarioSuiteMetrics metrics;
  metrics.seconds = total_timer.elapsed();
  bench::write_scenario_suite_json(suite_label, specs, results, metrics);
  return status;
}
