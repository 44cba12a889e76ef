// Scenario-driven bench, and the one way to regenerate the paper's figures
// and tables: runs declarative scenario suites through the
// core::ScenarioEngine -- one grid-scheduled task stream on --threads
// workers for the whole suite, however many datasets, methods, noise
// stacks, and levels it spans.
//
//   $ ./run_scenarios --suite paper --images 8          # fig2-8 + tables
//   $ ./run_scenarios --suite devices --threads 0       # device catalog
//   $ ./run_scenarios --file my_scenarios.txt           # your own suite
//
// Built-in suites (see core/scenario.h for the spec grammar):
//   paper    the fig2-8/table1-2 sweep cells, one scenario per figure or
//            table (run one alone with --file and its [scenario] section)
//   devices  every device_catalog() profile x all three zoo models
//   stress   mixed deletion+jitter+input stacks the paper never ran
//
// Per scenario, the accuracy and spike-count tables print when the suite
// finishes, and rows stream to TSNN_BENCH_OUT/<scenario>.csv as cells
// finish; --json PATH emits one JSON document with every scenario's rows
// plus suite-level throughput metrics (the perf-smoke CI job uploads the
// paper suite's as BENCH_paper.json).
#include <algorithm>
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
#include "noise/device_profile.h"
#include "report/csv.h"
#include "report/csv_resume.h"
#include "report/table.h"

namespace {

using namespace tsnn;

[[noreturn]] void usage(const char* prog, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s [--suite NAME | --file PATH] [--list]\n"
               "          [--shard i/N] [--resume]\n"
               "          [--images N] [--seed S] [--threads N] [--out DIR]"
               " [--json PATH]\n"
               "  --suite NAME  built-in suite: %s (default paper)\n"
               "  --file PATH   scenario spec file (see core/scenario.h)\n"
               "  --list        print the built-in suites and exit\n"
               "  --shard i/N   run only grid cells with index %% N == i;\n"
               "                give every shard its own --out, then rebuild\n"
               "                the full output with merge_shards\n"
               "  --resume      continue an interrupted run from\n"
               "                <out>/checkpoint.csv (same suite and flags);\n"
               "                finished files are byte-identical to an\n"
               "                uninterrupted run\n"
               "  plus the shared bench flags (see bench/bench_common.h)\n",
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

/// Per-scenario streaming CSV sink (bench::sweep_csv_cells format; method
/// labels get a "<dataset>/" prefix exactly when the scenario spans several
/// datasets, the cross-dataset table convention).
struct ScenarioCsv {
  std::unique_ptr<report::CsvStream> stream;  ///< null if open failed
  bool prefix_dataset = false;
};

/// One level column's display header: the device name for device sweeps,
/// "level=x.x" style otherwise.
std::string level_header(const core::ScenarioResult& result, double level) {
  if (result.level_name == "device") {
    return noise::device_catalog().at(static_cast<std::size_t>(level)).name;
  }
  return result.level_name + "=" + str::format_fixed(level, 1);
}

/// The paper-style tables of one scenario: accuracy, then the number of
/// spikes, each with one row per (dataset, method), one column per level,
/// and the row average (the Tables I/II layout).
void print_scenario(const core::ScenarioResult& result) {
  std::printf("\n== scenario %s ==\n", result.name.c_str());
  if (result.rows.empty()) {
    return;
  }
  // Grid order is (dataset, method)-major with contiguous level blocks, so
  // the first block's levels are every block's levels.
  std::size_t block = 1;
  while (block < result.rows.size() &&
         result.rows[block].method == result.rows[0].method &&
         result.rows[block].dataset == result.rows[0].dataset) {
    ++block;
  }
  std::vector<std::string> headers{"Method"};
  for (std::size_t i = 0; i < block; ++i) {
    headers.push_back(level_header(result, result.rows[i].level));
  }
  headers.push_back("Avg.");
  const auto print_table = [&](const char* title,
                               double core::ScenarioRow::*field,
                               std::string (*format)(double)) {
    report::Table table(headers);
    for (std::size_t r = 0; r < result.rows.size(); r += block) {
      std::vector<std::string> cells;
      cells.push_back(result.num_datasets > 1
                          ? result.rows[r].dataset + "/" + result.rows[r].method
                          : result.rows[r].method);
      double sum = 0.0;
      std::size_t n = 0;
      for (; n < block && r + n < result.rows.size(); ++n) {
        sum += result.rows[r + n].*field;
        cells.push_back(format(result.rows[r + n].*field));
      }
      cells.push_back(format(sum / static_cast<double>(n)));
      table.add_row(std::move(cells));
    }
    std::printf("%s\n%s", title, table.to_string().c_str());
  };
  print_table("Accuracy (%)", &core::ScenarioRow::accuracy, bench::pct);
  print_table("The number of spikes", &core::ScenarioRow::mean_spikes,
              [](double v) { return str::sci(v); });
}

/// Parses "--shard i/N" syntax; exits with usage on malformed input.
core::GridShard parse_shard(const char* prog, const std::string& text) {
  core::GridShard shard;
  std::size_t index = 0, count = 0;
  char trailing = 0;
  if (std::sscanf(text.c_str(), "%zu/%zu%c", &index, &count, &trailing) != 2 ||
      count == 0 || index >= count) {
    std::fprintf(stderr, "bad --shard '%s' (want i/N with 0 <= i < N)\n",
                 text.c_str());
    usage(prog, 2);
  }
  shard.index = index;
  shard.count = count;
  return shard;
}

core::ScenarioRow row_from_result(const core::CellPlan& plan,
                                  const core::EvalCellResult& result) {
  core::ScenarioRow row = plan.row;
  row.accuracy = result.accuracy;
  row.mean_spikes = result.mean_spikes;
  row.mean_decision_timesteps = result.mean_decision_timesteps;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsnn;

  // Peel off the scenario flags; everything else goes to bench::init.
  std::string suite = "paper";
  std::string file;
  core::GridShard shard;
  bool resume = false;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--file") == 0 && i + 1 < argc) {
      file = argv[++i];
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      shard = parse_shard(argv[0], argv[++i]);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const std::string& name : core::builtin_suite_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  bench::init(static_cast<int>(bench_args.size()), bench_args.data(), usage);

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

  const Stopwatch total_timer;

  // State the engine hooks stream into (declared before the engine so the
  // by-reference captures outlive it).
  std::vector<core::CellPlan> plan;
  core::CheckpointState ck;  // empty unless --resume finds a checkpoint
  std::unique_ptr<report::CsvStream> ckpt_stream;
  std::vector<ScenarioCsv> csvs(specs.size());
  std::vector<std::size_t> csv_skip(specs.size(), 0);     // rows already on disk
  std::vector<std::size_t> csv_written(specs.size(), 0);  // rows emitted so far

  const auto is_resumed = [&](std::size_t cell) {
    return cell < ck.completed.size() && ck.completed[cell] != 0;
  };

  core::ScenarioEngine::Options options;
  options.default_images = bench::bench_images();
  options.default_seed = bench::bench_seed();
  options.num_threads = bench::bench_threads();
  options.shard = shard;
  options.completed = [&](std::size_t cell, core::EvalCellResult* out) {
    if (!is_resumed(cell)) {
      return false;
    }
    *out = ck.results[cell];
    return true;
  };
  // Per emitted cell, in cell order: scenario-CSV row first, checkpoint
  // record second. A crash between the two leaves the CSV at most one
  // complete row ahead of the checkpoint -- the resume validation below
  // accepts exactly that skew, and re-executing the cell reproduces the
  // identical row bytes, so the skipped rewrite converges.
  options.on_cell = [&](std::size_t cell, std::size_t s,
                        const core::ScenarioRow& row) {
    if (csvs[s].stream) {
      if (csv_written[s]++ >= csv_skip[s]) {
        try {
          csvs[s].stream->add_row(bench::sweep_csv_cells(row, csvs[s].prefix_dataset));
        } catch (const IoError& e) {
          std::fprintf(stderr, "warning: %s\n", e.what());
          csvs[s].stream.reset();
        }
      }
    }
    if (ckpt_stream && !is_resumed(cell)) {
      try {
        ckpt_stream->add_row(core::checkpoint_cells(cell, plan[cell], row));
      } catch (const IoError& e) {
        std::fprintf(stderr, "warning: %s\n", e.what());
        ckpt_stream.reset();
      }
    }
  };

  core::ScenarioEngine engine(options);
  try {
    // Compiles the suite and resolves every workload: the plan is the cell
    // coordinate system checkpoints live in, and the zoo-preparation cost
    // is paid here, before the sweep timer starts.
    plan = engine.plan(specs);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // stdout stays empty until every check below has passed: a refused run
  // prints its one diagnostic on stderr and nothing else.
  const std::string ckpt_path = bench::csv_output_path("checkpoint");
  report::CsvResumePoint ckpt_at;  // {0, 0} = start a fresh checkpoint
  std::string resume_line;         // printed under the header
  if (resume && !ckpt_path.empty() &&
      std::filesystem::exists(ckpt_path)) {
    try {
      const core::CheckpointFile ckfile = core::read_checkpoint_file(ckpt_path);
      ck = core::validate_checkpoint(ckfile, plan, shard, ckpt_path);
      ckpt_at = ck.resume;
      resume_line = "resume: " + std::to_string(ck.completed_cells) +
                    " cell(s) already complete" +
                    (ckfile.torn_tail ? " (torn final record dropped)" : "");
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  } else if (resume) {
    resume_line = "resume: no checkpoint at " +
                  (ckpt_path.empty() ? std::string("<out>") : ckpt_path) +
                  "; starting fresh";
  }
  if (!ckpt_path.empty()) {
    try {
      ckpt_stream = std::make_unique<report::CsvStream>(
          ckpt_path, core::checkpoint_headers(), ckpt_at);
    } catch (const IoError& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }

  // Owned cells per scenario, in emission order -- the row coordinate of
  // each scenario CSV.
  std::vector<std::vector<std::size_t>> owned(specs.size());
  for (std::size_t c = shard.index; c < plan.size(); c += shard.count) {
    owned[plan[c].scenario].push_back(c);
  }

  // One CSV stream per scenario, filled in grid order as cells finish. On
  // --resume, the surviving file must be a validated prefix of this exact
  // run: header and every checkpoint-covered row byte-checked, at most one
  // row ahead of the checkpoint (the crash window), torn tails truncated.
  for (std::size_t s = 0; s < specs.size(); ++s) {
    csvs[s].prefix_dataset = specs[s].datasets.size() > 1;
    const std::string path = bench::csv_output_path(specs[s].name);
    if (path.empty()) {
      continue;
    }
    const std::vector<std::string> headers =
        bench::sweep_csv_headers(specs[s].level_name());
    report::CsvResumePoint at;  // {0, 0} = fresh file
    if (resume && std::filesystem::exists(path)) {
      try {
        const report::CsvResume existing(path);
        if (existing.has_header() && existing.header() != headers) {
          throw IoError(path + ": header mismatch (different suite?)");
        }
        std::size_t covered = 0;  // rows the checkpoint vouches for
        while (covered < owned[s].size() && is_resumed(owned[s][covered])) {
          ++covered;
        }
        const std::size_t on_disk = existing.num_rows();
        if (on_disk > covered + 1) {
          throw IoError(path + ": " + std::to_string(on_disk) +
                        " rows on disk but the checkpoint covers only " +
                        std::to_string(covered) +
                        " (not a crash artifact; refusing to resume)");
        }
        for (std::size_t i = 0; i < on_disk; ++i) {
          const std::size_t cell = owned[s][i];
          if (i < covered) {
            const std::vector<std::string> expect = bench::sweep_csv_cells(
                row_from_result(plan[cell], ck.results[cell]),
                csvs[s].prefix_dataset);
            if (existing.rows()[i] != expect) {
              throw IoError(path + ": row " + std::to_string(i) +
                            " does not match the checkpoint; refusing to "
                            "resume over foreign data");
            }
          } else {
            // The one row ahead of the checkpoint: its measured values are
            // unknown, but method and level are plan-determined.
            const std::vector<std::string> expect =
                bench::sweep_csv_cells(plan[cell].row, csvs[s].prefix_dataset);
            if (existing.rows()[i][0] != expect[0] ||
                existing.rows()[i][1] != expect[1]) {
              throw IoError(path + ": trailing row " + std::to_string(i) +
                            " is not the next planned cell; refusing to "
                            "resume over foreign data");
            }
          }
        }
        at = existing.resume_point();
        csv_skip[s] = on_disk;
      } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    }
    try {
      csvs[s].stream = std::make_unique<report::CsvStream>(path, headers, at);
    } catch (const IoError& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }

  std::printf("scenario suite %s | %zu scenario(s) | images %zu | seed %llu",
              suite_label.c_str(), specs.size(), bench::bench_images(),
              static_cast<unsigned long long>(bench::bench_seed()));
  if (shard.count > 1) {
    std::printf(" | shard %zu/%zu", shard.index, shard.count);
  }
  std::printf("%s\n", resume ? " | resume" : "");
  if (!resume_line.empty()) {
    std::printf("%s\n", resume_line.c_str());
  }

  const double zoo_before_run = engine.zoo_prep().seconds;
  const Stopwatch sweep_timer;
  std::vector<core::ScenarioResult> results;
  try {
    results = engine.run(specs);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  // Sweep-only wall time: any residual zoo preparation triggered inside
  // run() (plan() normally pays it all) is excluded.
  const double sweep_seconds = std::max(
      0.0, sweep_timer.elapsed() - (engine.zoo_prep().seconds - zoo_before_run));

  std::size_t total_images = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    if (shard.count > 1) {
      // A shard holds an arbitrary subset of each method's level block, so
      // the full-grid table layout does not apply; merge_shards rebuilds
      // the complete picture.
      std::size_t scenario_cells = 0;
      for (const core::CellPlan& p : plan) {
        scenario_cells += p.scenario == s ? 1 : 0;
      }
      std::printf("\n== scenario %s == shard %zu/%zu ran %zu of %zu cell(s)\n",
                  results[s].name.c_str(), shard.index, shard.count,
                  results[s].rows.size(), scenario_cells);
    } else {
      print_scenario(results[s]);
    }
    total_images += results[s].images_simulated;
    if (csvs[s].stream) {
      std::printf("csv: %s\n", csvs[s].stream->path().c_str());
    }
  }
  if (ckpt_stream) {
    std::printf("checkpoint: %s\n", ckpt_stream->path().c_str());
  }
  const std::size_t images_executed = total_images - ck.completed_images;
  if (sweep_seconds > 0.0 && images_executed > 0) {
    std::printf("\nsweep throughput: %zu images in %.2fs = %.1f images/sec"
                "%s\n",
                images_executed, sweep_seconds,
                static_cast<double>(images_executed) / sweep_seconds,
                ck.completed_cells > 0 ? " (resumed cells excluded)" : "");
  }
  const core::ScenarioEngine::ZooPrepStats& zoo = engine.zoo_prep();
  if (zoo.loads > 0) {
    std::printf("zoo prep: %.2fs for %zu dataset(s), %zu from artifact cache\n",
                zoo.seconds, zoo.loads, zoo.artifact_hits);
  }
  bench::ScenarioSuiteMetrics metrics;
  metrics.seconds = total_timer.elapsed();
  metrics.sweep_seconds = sweep_seconds;
  metrics.images_executed = images_executed;
  metrics.zoo = zoo;
  bench::write_scenario_suite_json(suite_label, specs, results, metrics);
  return 0;
}
