#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/env.h"
#include "common/string_util.h"
#include "simd/kernels.h"
#include "report/csv.h"

namespace tsnn::bench {

namespace {

/// The shared knobs as init() resolved them (defaults until it runs).
struct Knobs {
  std::int64_t images = 40;
  std::int64_t seed = 0xBEEF;
  std::int64_t threads = 1;
  std::optional<std::string> json;
};

Knobs& knobs() {
  static Knobs k;
  return k;
}

[[noreturn]] void shared_usage(const char* prog, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s [--images N] [--seed S] [--threads N] [--out DIR]"
               " [--json PATH]\n"
               "  --images N   test images per configuration (default 40)\n"
               "  --seed S     base noise seed (default 0xBEEF)\n"
               "  --threads N  evaluation workers, 0 = all cores (default 1)\n"
               "  --out DIR    CSV output directory (default ./bench_results)\n"
               "  --json PATH  also write results as JSON to PATH\n",
               prog);
  std::exit(exit_code);
}

[[noreturn]] void bad_arg(const char* prog, UsageFn usage) {
  (usage != nullptr ? usage : shared_usage)(prog, 2);
  std::exit(2);  // a UsageFn exits; this keeps the attribute honest
}

/// Shared body of the numeric parsers: `parse(value, &end)` must consume
/// the whole value without overflowing.
template <typename T, typename Parse>
T parse_arg(const char* prog, const char* flag, const char* value,
            bool allow_negative, UsageFn usage, Parse parse) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
    bad_arg(prog, usage);
  }
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      !std::isfinite(static_cast<double>(parsed))) {
    std::fprintf(stderr, "%s: %s got non-numeric value '%s'\n", prog, flag, value);
    bad_arg(prog, usage);
  }
  if (!allow_negative && parsed < 0) {
    std::fprintf(stderr, "%s: %s must be >= 0, got %s\n", prog, flag, value);
    bad_arg(prog, usage);
  }
  return parsed;
}

}  // namespace

std::int64_t parse_int_arg(const char* prog, const char* flag,
                           const char* value, bool allow_negative,
                           UsageFn usage) {
  return parse_arg<std::int64_t>(
      prog, flag, value, allow_negative, usage,
      [](const char* s, char** end) { return std::strtoll(s, end, 0); });
}

double parse_double_arg(const char* prog, const char* flag, const char* value,
                        UsageFn usage) {
  return parse_arg<double>(prog, flag, value, /*allow_negative=*/false, usage,
                           [](const char* s, char** end) {
                             return std::strtod(s, end);
                           });
}

void init(int argc, char** argv, UsageFn usage) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  if (usage == nullptr) {
    usage = shared_usage;
  }
  // Environment first, through the flags' validation but always decimal (a
  // leading 0 is not octal, 0x is rejected); flags override it.
  const auto from_env = [prog, usage](const char* name, bool allow_negative,
                                      std::int64_t& knob) {
    if (const char* value = std::getenv(name)) {
      knob = parse_arg<std::int64_t>(
          prog, name, value, allow_negative, usage,
          [](const char* s, char** end) { return std::strtoll(s, end, 10); });
    }
  };
  from_env("TSNN_BENCH_IMAGES", /*allow_negative=*/false, knobs().images);
  if (knobs().images == 0) {
    std::fprintf(stderr, "%s: TSNN_BENCH_IMAGES must be >= 1\n", prog);
    usage(prog, 2);
  }
  // Any 64-bit pattern is a valid seed; negative values just wrap.
  from_env("TSNN_BENCH_SEED", /*allow_negative=*/true, knobs().seed);
  from_env("TSNN_BENCH_THREADS", /*allow_negative=*/false, knobs().threads);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(prog, 0);
    } else if (std::strcmp(arg, "--images") == 0) {
      knobs().images =
          parse_int_arg(prog, arg, value, /*allow_negative=*/false, usage);
      if (knobs().images == 0) {
        std::fprintf(stderr, "%s: --images must be >= 1\n", prog);
        usage(prog, 2);
      }
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      knobs().seed =
          parse_int_arg(prog, arg, value, /*allow_negative=*/true, usage);
      ++i;
    } else if (std::strcmp(arg, "--threads") == 0) {
      knobs().threads =
          parse_int_arg(prog, arg, value, /*allow_negative=*/false, usage);
      ++i;
    } else if (std::strcmp(arg, "--out") == 0) {
      if (value == nullptr) {
        std::fprintf(stderr, "%s: --out needs a value\n", prog);
        usage(prog, 2);
      }
      // csv_output_path reads the env var, so route the flag through it.
      setenv("TSNN_BENCH_OUT", value, /*overwrite=*/1);
      ++i;
    } else if (std::strcmp(arg, "--json") == 0) {
      if (value == nullptr) {
        std::fprintf(stderr, "%s: --json needs a value\n", prog);
        usage(prog, 2);
      }
      knobs().json = value;
      ++i;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, arg);
      usage(prog, 2);
    }
  }
}

std::size_t bench_images() {
  return static_cast<std::size_t>(knobs().images);
}

std::uint64_t bench_seed() { return static_cast<std::uint64_t>(knobs().seed); }

std::size_t bench_threads() {
  return static_cast<std::size_t>(knobs().threads);
}

std::string bench_json() {
  if (knobs().json) {
    return *knobs().json;
  }
  return env::get_string("TSNN_BENCH_JSON", "");
}

core::ZooWorkload prepare_workload(core::DatasetKind kind) {
  core::ZooWorkload w = core::load_zoo_workload(kind, bench_images());
  std::printf(
      "# dataset %s | source DNN acc %s%% | %zu test images | %zu stages"
      " | %s in %.2fs\n",
      core::dataset_name(kind).c_str(), pct(w.dnn_accuracy).c_str(),
      w.test_images.size(), w.conversion.model.num_stages(),
      w.from_artifact_cache ? "artifact cache" : "fresh convert",
      w.prep_seconds);
  return w;
}

namespace {

/// Metrics recorded via record_metric(), in recording order.
std::vector<std::pair<std::string, double>>& metrics() {
  static std::vector<std::pair<std::string, double>> m;
  return m;
}

/// Early-exit provenance label recorded via record_early_exit().
std::string& early_exit_label() {
  static std::string label = "off";
  return label;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<std::string> sweep_csv_headers(const std::string& level_name) {
  return {"method", level_name, "accuracy", "mean_spikes",
          "mean_decision_timesteps"};
}

std::vector<std::string> sweep_csv_cells(const core::ScenarioRow& row,
                                         bool prefix_dataset) {
  return {prefix_dataset ? row.dataset + "/" + row.method : row.method,
          str::format_fixed(row.level, 2), str::format_fixed(row.accuracy, 4),
          str::format_fixed(row.mean_spikes, 1),
          str::format_fixed(row.mean_decision_timesteps, 2)};
}

std::string csv_output_path(const std::string& name) {
  const std::string dir = env::get_string("TSNN_BENCH_OUT", "./bench_results");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create %s; skipping CSV\n", dir.c_str());
    return "";
  }
  return dir + "/" + name + ".csv";
}

void write_scenario_suite_json(
    const std::string& suite_label,
    const std::vector<core::ScenarioSpec>& specs,
    const std::vector<core::ScenarioResult>& results,
    const ScenarioSuiteMetrics& metrics) {
  const std::string path = bench_json();
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s; skipping JSON\n",
                 path.c_str());
    return;
  }
  std::size_t total_images = 0;
  for (const core::ScenarioResult& r : results) {
    total_images += r.images_simulated;
  }
  // default_images/default_seed are the CLI/env values; a spec's own
  // `images =` / `seed =` keys override them per scenario, so the
  // per-scenario images_simulated below is the authoritative workload size.
  std::fprintf(f,
               "{\n"
               "  \"suite\": \"%s\",\n"
               "  \"default_images\": %zu,\n"
               "  \"default_seed\": %llu,\n"
               "  \"isa\": \"%s\",\n"
               "  \"scenarios\": [",
               json_escape(suite_label).c_str(), bench_images(),
               static_cast<unsigned long long>(bench_seed()),
               json_escape(simd::active_isa()).c_str());
  for (std::size_t s = 0; s < results.size(); ++s) {
    const core::ScenarioResult& result = results[s];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"level_name\": \"%s\", "
                 "\"images_simulated\": %zu, \"early_exit\": \"%s\",\n"
                 "     \"rows\": [",
                 s == 0 ? "" : ",", json_escape(result.name).c_str(),
                 json_escape(result.level_name).c_str(),
                 result.images_simulated,
                 json_escape(specs[s].early_exit.describe()).c_str());
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      const core::ScenarioRow& row = result.rows[i];
      std::fprintf(f,
                   "%s\n      {\"dataset\": \"%s\", \"method\": \"%s\", "
                   "\"level\": %.6g, \"noise\": \"%s\", \"accuracy\": %.8g, "
                   "\"mean_spikes\": %.8g, \"ws_factor\": %.8g, "
                   "\"mean_decision_timesteps\": %.8g}",
                   i == 0 ? "" : ",", json_escape(row.dataset).c_str(),
                   json_escape(row.method).c_str(), row.level,
                   json_escape(row.noise).c_str(), row.accuracy,
                   row.mean_spikes, row.ws_factor,
                   row.mean_decision_timesteps);
    }
    std::fprintf(f, "\n     ]}");
  }
  // zoo_prep_seconds covers dataset generation + model load-or-train +
  // conversion (or a TSNZ artifact load); on a warm zoo cache it is the
  // cold-vs-warm signal the perf-smoke CI job tracks. images_per_sec is
  // sweep-only and counts only cells this process actually executed, so a
  // resumed or sharded run reports throughput comparable to a full one.
  std::fprintf(f,
               "\n  ],\n"
               "  \"metrics\": {\n"
               "    \"seconds\": %.8g,\n"
               "    \"sweep_seconds\": %.8g,\n"
               "    \"images_simulated\": %zu,\n"
               "    \"images_executed\": %zu,\n"
               "    \"images_per_sec\": %.8g,\n"
               "    \"zoo_prep_seconds\": %.8g,\n"
               "    \"zoo_loads\": %zu,\n"
               "    \"zoo_artifact_hits\": %zu\n"
               "  }\n"
               "}\n",
               metrics.seconds, metrics.sweep_seconds, total_images,
               metrics.images_executed,
               metrics.sweep_seconds > 0.0
                   ? static_cast<double>(metrics.images_executed) /
                         metrics.sweep_seconds
                   : 0.0,
               metrics.zoo.seconds, metrics.zoo.loads,
               metrics.zoo.artifact_hits);
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());
}

namespace {

/// Emits the sweep rows as one JSON document to the --json path. Failures
/// degrade to a warning, matching write_csv.
void write_json_results(const std::string& name, const std::string& level_name,
                        const std::vector<core::ScenarioRow>& rows) {
  const std::string path = bench_json();
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s; skipping JSON\n",
                 path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"%s\",\n"
               "  \"level_name\": \"%s\",\n"
               "  \"images\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"isa\": \"%s\",\n"
               "  \"early_exit\": \"%s\",\n"
               "  \"rows\": [",
               json_escape(name).c_str(), json_escape(level_name).c_str(),
               bench_images(),
               static_cast<unsigned long long>(bench_seed()),
               json_escape(simd::active_isa()).c_str(),
               json_escape(early_exit_label()).c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const core::ScenarioRow& r = rows[i];
    std::fprintf(f,
                 "%s\n    {\"method\": \"%s\", \"level\": %.6g, "
                 "\"accuracy\": %.8g, \"mean_spikes\": %.8g, "
                 "\"mean_decision_timesteps\": %.8g}",
                 i == 0 ? "" : ",", json_escape(r.method).c_str(), r.level,
                 r.accuracy, r.mean_spikes, r.mean_decision_timesteps);
  }
  std::fprintf(f, "\n  ]");
  if (!metrics().empty()) {
    std::fprintf(f, ",\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics().size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.8g", i == 0 ? "" : ",",
                   json_escape(metrics()[i].first).c_str(),
                   metrics()[i].second);
    }
    std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());
}

}  // namespace

void record_early_exit(const std::string& label) {
  early_exit_label() = label;
}

void record_metric(const std::string& name, double value) {
  for (auto& [key, val] : metrics()) {
    if (key == name) {
      val = value;
      return;
    }
  }
  metrics().emplace_back(name, value);
}

SweepReport::SweepReport(std::string name, std::string level_name)
    : name_(std::move(name)), level_name_(std::move(level_name)) {
  const std::string path = csv_output_path(name_);
  if (path.empty()) {
    return;
  }
  try {
    csv_ = std::make_unique<report::CsvStream>(path,
                                               sweep_csv_headers(level_name_));
  } catch (const IoError& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
}

void SweepReport::add_row(const core::ScenarioRow& row) {
  if (csv_) {
    try {
      csv_->add_row(sweep_csv_cells(row, /*prefix_dataset=*/false));
    } catch (const IoError& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
      csv_.reset();
    }
  }
  rows_.push_back(row);
}

void SweepReport::finish() {
  write_json_results(name_, level_name_, rows_);
  if (csv_) {
    std::printf("csv: %s\n", csv_->path().c_str());
    csv_.reset();
  }
}

std::string pct(double accuracy) {
  return str::format_fixed(accuracy * 100.0, 2);
}

LatencyStats::Summary LatencyStats::summarize() const {
  Summary s;
  s.count = samples_.size();
  if (samples_.empty()) {
    return s;
  }
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double v : sorted) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(sorted.size());
  // Nearest-rank: pK = the ceil(K/100 * n)-th smallest (1-based), so p50
  // of one sample is that sample and p99 of 100 samples is the 99th.
  const auto rank = [&](double pct_rank) {
    const double n = static_cast<double>(sorted.size());
    std::size_t r = static_cast<std::size_t>(std::ceil(pct_rank / 100.0 * n));
    r = std::max<std::size_t>(r, 1);
    return sorted[std::min(r, sorted.size()) - 1];
  };
  s.p50 = rank(50.0);
  s.p95 = rank(95.0);
  s.p99 = rank(99.0);
  s.max = sorted.back();
  return s;
}

std::string LatencyStats::json(const Summary& s) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(s.count);
  out += ",\"mean_us\":" + str::format_fixed(s.mean, 1);
  out += ",\"p50_us\":" + str::format_fixed(s.p50, 1);
  out += ",\"p95_us\":" + str::format_fixed(s.p95, 1);
  out += ",\"p99_us\":" + str::format_fixed(s.p99, 1);
  out += ",\"max_us\":" + str::format_fixed(s.max, 1);
  out += "}";
  return out;
}

}  // namespace tsnn::bench
