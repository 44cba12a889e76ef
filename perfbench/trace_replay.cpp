// trace_replay: the benchmark's traced per-layer profile.
//
// Replays every cell of a scenario spec image by image, making the same
// public calls in the same order as snn::simulate_sequential_into (the path
// execute_request takes with no early-exit policy):
//
//   Rng::for_stream(seed, i); ScaledModelCache for +WS models
//   CodingScheme::encode_into, then NoiseModel::apply_inplace
//   per hidden stage: CodingScheme::run_layer_into, then apply_inplace
//   CodingScheme::readout_into
//
// and records one span per call (name, start, end, parent span, request
// id), kept in memory and written at exit as Chrome trace-event JSON that
// Perfetto and chrome://tracing open. Each image also runs once untraced
// through snn::execute_request (alternating which goes first), and the
// replay must reproduce its predicted class and total spike count exactly.
// Two final core::run_grid passes over the same cells, serial and at the
// workload's threads, give the grid's busy fraction. Everything is
// summarised per (dataset, method) in one JSON document for
// perfbench/run.py.
//
//   trace_replay --zoo s-mnist,s-cifar10      # load (or train) through the
//                                             # artifact cache, one JSON line
//                                             # per dataset
//   trace_replay --spec FILE --images N --seed S --threads T
//                --json OUT --trace OUT
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/weight_scaling.h"
#include "core/zoo.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "snn/simulator.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace tsnn;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

core::DatasetKind kind_of(const std::string& name) {
  core::DatasetKind kind;
  TSNN_CHECK_MSG(core::dataset_kind_from_name(name, &kind),
                 "unknown zoo dataset '" << name << "'");
  return kind;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

/// Loads each dataset through the artifact cache (training on a miss) and
/// reports whether it was a hit: the benchmark's zoo preparation and guard.
int zoo_mode(const std::string& datasets) {
  for (const std::string& name : split_list(datasets)) {
    const core::DatasetKind kind = kind_of(name);
    const core::ZooWorkload w = core::load_zoo_workload(kind, 1);
    std::printf(
        "{\"dataset\": \"%s\", \"artifact_hit\": %s, \"load_s\": %.6f, "
        "\"artifact\": \"%s\", \"isa\": \"%s\"}\n",
        name.c_str(), w.from_artifact_cache ? "true" : "false",
        w.prep_seconds,
        bench::json_escape(core::zoo_artifact_path(kind)).c_str(),
        simd::active_isa().c_str());
  }
  return 0;
}

/// One recorded call. `parent` is the index of the enclosing span (the
/// image's request span) or -1 for a request span itself.
struct Span {
  const char* name;
  std::int64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::string stage;  ///< stage name for run_layer_into spans
};

/// Per (dataset, method) accumulators; times in ns, counts summed.
struct Group {
  std::string dataset;
  std::string method;
  std::size_t images = 0;
  std::int64_t encode_ns = 0;
  std::int64_t noise_ns = 0;
  std::uint64_t noise_in = 0;
  std::uint64_t noise_out = 0;
  std::int64_t readout_ns = 0;
  std::int64_t execute_ns = 0;  ///< untraced execute_request
  std::int64_t traced_ns = 0;   ///< traced request spans
  std::vector<std::string> stage_names;
  std::vector<std::int64_t> stage_ns;
  std::vector<std::uint64_t> stage_spikes;
};

struct Cell {
  core::EvalCell eval;
  std::size_t group = 0;
  std::string dataset;
  std::string method;
  double level = 0.0;
};

/// The traced per-image body. Mirrors simulate_sequential_into call for
/// call; returns (predicted class, total spikes).
std::pair<std::size_t, std::size_t> traced_image(
    const core::EvalCell& cell, std::size_t i, std::uint64_t request,
    snn::SimWorkspace& ws, Tensor& logits, Group& g, std::vector<Span>& spans) {
  const std::int64_t t_req = now_ns();
  const std::int64_t parent = static_cast<std::int64_t>(spans.size());
  spans.push_back({"request", -1, request, t_req, 0, ""});
  const auto span = [&](const char* name, std::int64_t a, std::int64_t b,
                        const std::string& stage = std::string()) {
    spans.push_back({name, parent, request, a, b, stage});
    return b - a;
  };

  Rng rng = Rng::for_stream(cell.seed, i);
  const snn::SnnModel& model = *cell.model;
  const snn::CodingScheme& scheme = *cell.scheme;
  const snn::NoiseModel* noise = cell.noise;
  const Tensor& image = (*cell.images)[i];
  std::size_t total_spikes = 0;

  const auto apply_noise = [&]() {
    if (noise == nullptr) {
      return;
    }
    const std::size_t in = ws.cur.size();
    const std::int64_t a = now_ns();
    noise->apply_inplace(ws.cur, ws.sort, rng);
    g.noise_ns += span("apply_inplace", a, now_ns());
    g.noise_in += in;
    g.noise_out += ws.cur.size();
  };

  std::int64_t a = now_ns();
  scheme.encode_into(image, ws, ws.cur);
  g.encode_ns += span("encode_into", a, now_ns());
  apply_noise();
  total_spikes += ws.cur.size();

  snn::LayerRole role = snn::LayerRole::kFirstHidden;
  for (std::size_t s = 0; s + 1 < model.num_stages(); ++s) {
    a = now_ns();
    scheme.run_layer_into(ws.cur, *model.stage(s).synapse, role, ws, ws.next);
    g.stage_ns[s] += span("run_layer_into", a, now_ns(), model.stage(s).name);
    std::swap(ws.cur, ws.next);
    role = snn::LayerRole::kHidden;
    g.stage_spikes[s] += ws.cur.size();
    apply_noise();
    total_spikes += ws.cur.size();
  }

  const snn::SynapseTopology& readout =
      *model.stage(model.num_stages() - 1).synapse;
  if (logits.rank() != 1 || logits.dim(0) != readout.out_size()) {
    logits = Tensor{Shape{readout.out_size()}};
  }
  a = now_ns();
  scheme.readout_into(ws.cur, readout, role, ws, logits.data());
  g.readout_ns += span("readout_into", a, now_ns());

  const std::int64_t t_end = now_ns();
  spans[static_cast<std::size_t>(parent)].end_ns = t_end;
  g.traced_ns += t_end - t_req;
  return {ops::argmax(logits), total_spikes};
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& workload) {
  std::ofstream out(path);
  TSNN_CHECK_MSG(out.good(), "cannot write trace " << path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": \""
      << bench::json_escape(workload) << "\"}, \"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\": \"%s%s%s\", \"cat\": \"%s\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
        "{\"span\": %zu, \"parent\": %lld, \"request\": %llu}}",
        k == 0 ? "" : ",\n", s.name, s.stage.empty() ? "" : ":",
        s.stage.c_str(),
        s.parent < 0 ? "request"
        : std::strcmp(s.name, "apply_inplace") == 0 ? "noise"
        : std::strcmp(s.name, "encode_into") == 0  ? "coding"
                                                    : "snn",
        static_cast<double>(s.start_ns - t0) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, k,
        static_cast<long long>(s.parent),
        static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  TSNN_CHECK_MSG(out.good(), "short write to trace " << path);
}

struct ReplayArgs {
  std::string spec;
  std::size_t images = 8;
  std::uint64_t seed = 0xBEEF;
  std::size_t threads = 1;
  std::string json;
  std::string trace;
};

int replay_mode(const ReplayArgs& args) {
  std::ifstream in(args.spec);
  TSNN_CHECK_MSG(in.good(), "cannot read spec " << args.spec);
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<core::ScenarioSpec> specs =
      core::parse_scenarios(text.str());
  TSNN_CHECK_MSG(specs.size() == 1, "trace_replay takes a one-scenario spec");
  const core::ScenarioSpec& spec = specs.front();
  TSNN_CHECK_MSG(spec.noise.size() == 1 && spec.noise[0].swept &&
                     (spec.noise[0].kind == core::NoiseLayerSpec::Kind::kDeletion ||
                      spec.noise[0].kind == core::NoiseLayerSpec::Kind::kJitter),
                 "trace_replay supports one swept deletion or jitter layer");
  const bool deletion =
      spec.noise[0].kind == core::NoiseLayerSpec::Kind::kDeletion;
  const std::size_t images = spec.images != 0 ? spec.images : args.images;
  const std::uint64_t seed = spec.has_seed ? spec.seed : args.seed;

  // Zoo layer: one timed load per dataset (the warm artifact path).
  std::map<std::string, core::ZooWorkload> zoo;
  std::map<std::string, std::unique_ptr<core::ScaledModelCache>> scaled;
  std::string zoo_json;
  for (const std::string& name : spec.datasets) {
    core::ZooWorkload w = core::load_zoo_workload(kind_of(name), images);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"dataset\": \"%s\", \"load_s\": %.6f, \"artifact_hit\": %s}",
                  zoo_json.empty() ? "" : ", ", name.c_str(), w.prep_seconds,
                  w.from_artifact_cache ? "true" : "false");
    zoo_json += buf;
    auto it = zoo.emplace(name, std::move(w)).first;
    scaled[name] =
        std::make_unique<core::ScaledModelCache>(it->second.conversion.model);
  }

  // Cells in ScenarioEngine order: dataset, method, level.
  std::vector<snn::CodingSchemePtr> schemes;
  for (const core::MethodSpec& m : spec.methods) {
    schemes.push_back(coding::make_scheme(m.coding, m.params));
  }
  std::vector<snn::NoiseModelPtr> stacks;
  for (const double level : spec.levels) {
    stacks.push_back(level <= 0.0 ? nullptr
                     : deletion   ? noise::make_deletion(level)
                                  : noise::make_jitter(level));
  }
  std::vector<Group> groups;
  std::vector<Cell> cells;
  for (const std::string& name : spec.datasets) {
    const core::ZooWorkload& w = zoo.at(name);
    for (std::size_t m = 0; m < spec.methods.size(); ++m) {
      Group g;
      g.dataset = name;
      g.method = spec.methods[m].label;
      const snn::SnnModel& base = w.conversion.model;
      for (std::size_t s = 0; s + 1 < base.num_stages(); ++s) {
        g.stage_names.push_back(base.stage(s).name);
      }
      g.stage_ns.assign(g.stage_names.size(), 0);
      g.stage_spikes.assign(g.stage_names.size(), 0);
      groups.push_back(std::move(g));
      for (std::size_t l = 0; l < spec.levels.size(); ++l) {
        const double level = spec.levels[l];
        const float ws_factor =
            spec.methods[m].weight_scaling && deletion && level > 0.0
                ? core::weight_scaling_factor(level)
                : 1.0f;
        Cell c;
        c.eval.model = &scaled.at(name)->get(ws_factor);
        c.eval.scheme = schemes[m].get();
        c.eval.noise = stacks[l].get();
        c.eval.images = &w.test_images;
        c.eval.labels = &w.test_labels;
        c.eval.seed = seed;
        c.group = groups.size() - 1;
        c.dataset = name;
        c.method = spec.methods[m].label;
        c.level = level;
        cells.push_back(c);
      }
    }
  }

  // Replay: per image, untraced execute_request and the traced body, in
  // alternating order so neither always runs on the other's warm caches.
  std::vector<Span> spans;
  spans.reserve(cells.size() * images * 24);
  snn::SimWorkspace ws;
  snn::SimResult untraced;
  Tensor logits;
  std::size_t mismatches = 0;
  std::uint64_t request = 0;
  std::string rows_json;
  for (const Cell& c : cells) {
    Group& g = groups[c.group];
    const std::size_t n = c.eval.images->size();
    snn::ClassifyRequest req;
    req.sim.model = c.eval.model;
    req.sim.scheme = c.eval.scheme;
    req.sim.noise = c.eval.noise;
    req.seed = c.eval.seed;
    // Warm-up (unrecorded): first touch of a model builds its lazy kernel
    // caches, which the grid pays once per process, not per image.
    req.image = &(*c.eval.images)[0];
    req.stream = 0;
    snn::execute_request(req, ws, untraced);

    std::size_t correct = 0;
    double spikes = 0.0;
    double decision = 0.0;
    for (std::size_t i = 0; i < n; ++i, ++request) {
      req.image = &(*c.eval.images)[i];
      req.stream = i;
      std::pair<std::size_t, std::size_t> traced;
      const auto run_untraced = [&] {
        const std::int64_t a = now_ns();
        snn::execute_request(req, ws, untraced);
        g.execute_ns += now_ns() - a;
      };
      if (i % 2 == 0) {
        run_untraced();
        traced = traced_image(c.eval, i, request, ws, logits, g, spans);
      } else {
        traced = traced_image(c.eval, i, request, ws, logits, g, spans);
        run_untraced();
      }
      ++g.images;
      if (traced.first != untraced.predicted_class ||
          traced.second != untraced.total_spikes) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "selfcheck MISMATCH %s/%s level %g image %zu: traced "
                       "(%zu, %zu) vs execute_request (%zu, %zu)\n",
                       c.dataset.c_str(), c.method.c_str(), c.level, i,
                       traced.first, traced.second, untraced.predicted_class,
                       untraced.total_spikes);
        }
      }
      correct += untraced.predicted_class == (*c.eval.labels)[i] ? 1 : 0;
      spikes += static_cast<double>(untraced.total_spikes);
      decision += static_cast<double>(untraced.decision_timestep);
    }
    // The row as run_scenarios writes it to CSV.
    const double dn = static_cast<double>(n);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s[\"%s\", \"%s\", \"%s\", \"%s\", \"%s\", \"%s\"]",
                  rows_json.empty() ? "" : ",\n    ", c.dataset.c_str(),
                  c.method.c_str(), str::format_fixed(c.level, 2).c_str(),
                  str::format_fixed(static_cast<double>(correct) / dn, 4).c_str(),
                  str::format_fixed(spikes / dn, 1).c_str(),
                  str::format_fixed(decision / dn, 2).c_str());
    rows_json += buf;
  }

  // Grid layer: the same cells through run_grid serially (its wall time is
  // the total execute time) and then at the workload's threads, back to
  // back so both see the same host conditions.
  std::vector<core::EvalCell> grid_cells;
  for (const Cell& c : cells) {
    grid_cells.push_back(c.eval);
  }
  const auto grid_wall_s = [&](std::size_t threads) {
    core::GridOptions grid;
    grid.num_threads = threads;
    const std::int64_t g0 = now_ns();
    core::run_grid(grid_cells, grid);
    return static_cast<double>(now_ns() - g0) / 1e9;
  };
  const double serial_wall_s = grid_wall_s(1);
  const double parallel_wall_s = grid_wall_s(args.threads);

  if (!args.trace.empty()) {
    write_trace(args.trace, spans, spec.name);
  }

  std::ofstream out(args.json);
  TSNN_CHECK_MSG(out.good(), "cannot write " << args.json);
  out << "{\n  \"scenario\": \"" << bench::json_escape(spec.name) << "\",\n"
      << "  \"isa\": \"" << simd::active_isa() << "\",\n"
      << "  \"images_per_cell\": " << images << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"threads\": " << args.threads << ",\n"
      << "  \"spans\": " << spans.size() << ",\n"
      << "  \"selfcheck_images\": " << request << ",\n"
      << "  \"selfcheck_mismatches\": " << mismatches << ",\n"
      << "  \"grid_serial_wall_s\": " << serial_wall_s << ",\n"
      << "  \"grid_wall_s\": " << parallel_wall_s << ",\n"
      << "  \"zoo\": [" << zoo_json << "],\n"
      << "  \"rows\": [\n    " << rows_json << "\n  ],\n"
      << "  \"groups\": [";
  for (std::size_t k = 0; k < groups.size(); ++k) {
    const Group& g = groups[k];
    out << (k == 0 ? "\n" : ",\n") << "    {\"dataset\": \"" << g.dataset
        << "\", \"method\": \"" << g.method << "\", \"images\": " << g.images
        << ", \"encode_ns\": " << g.encode_ns
        << ", \"noise_ns\": " << g.noise_ns
        << ", \"noise_events_in\": " << g.noise_in
        << ", \"noise_events_out\": " << g.noise_out
        << ", \"readout_ns\": " << g.readout_ns
        << ", \"execute_ns\": " << g.execute_ns
        << ", \"traced_ns\": " << g.traced_ns << ", \"stages\": [";
    for (std::size_t s = 0; s < g.stage_names.size(); ++s) {
      out << (s == 0 ? "" : ", ") << "{\"name\": \"" << g.stage_names[s]
          << "\", \"ns\": " << g.stage_ns[s]
          << ", \"spikes_out\": " << g.stage_spikes[s] << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  TSNN_CHECK_MSG(out.good(), "short write to " << args.json);
  return mismatches == 0 ? 0 : 3;
}

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --zoo DATASET[,DATASET...]\n"
               "       %s --spec FILE --json OUT [--trace OUT] [--images N]\n"
               "          [--seed S] [--threads N]\n",
               prog, prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ReplayArgs args;
  std::string zoo;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
    }
    const char* value = argv[++i];
    if (arg == "--zoo") {
      zoo = value;
    } else if (arg == "--spec") {
      args.spec = value;
    } else if (arg == "--images") {
      args.images = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (arg == "--threads") {
      args.threads = std::strtoull(value, nullptr, 10);
    } else if (arg == "--json") {
      args.json = value;
    } else if (arg == "--trace") {
      args.trace = value;
    } else {
      usage(argv[0]);
    }
  }
  try {
    if (!zoo.empty()) {
      return zoo_mode(zoo);
    }
    if (args.spec.empty() || args.json.empty() || args.images == 0) {
      usage(argv[0]);
    }
    return replay_mode(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 1;
  }
}
