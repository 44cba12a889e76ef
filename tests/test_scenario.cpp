// Tests for the declarative scenario engine: spec parse round-trips and
// error paths, the level-grid rule, and scenario rows bit-identical to a
// per-cell snn::evaluate reference at 1/2/8 threads.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "coding/registry.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/weight_scaling.h"
#include "noise/device_profile.h"
#include "noise/noise.h"
#include "snn/simulator.h"
#include "snn/topology.h"

namespace tsnn::core {
namespace {

using snn::Coding;

// ----------------------------------------------------------------- parsing --

void expect_methods_equal(const std::vector<MethodSpec>& a,
                          const std::vector<MethodSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "method " << i;
    EXPECT_EQ(a[i].coding, b[i].coding) << "method " << i;
    EXPECT_EQ(a[i].weight_scaling, b[i].weight_scaling) << "method " << i;
    EXPECT_EQ(a[i].params.burst_duration, b[i].params.burst_duration)
        << "method " << i;
    EXPECT_FLOAT_EQ(a[i].params.threshold, b[i].params.threshold)
        << "method " << i;
  }
}

void expect_specs_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.datasets, b.datasets);
  expect_methods_equal(a.methods, b.methods);
  EXPECT_EQ(a.noise, b.noise);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.images, b.images);
  EXPECT_EQ(a.has_seed, b.has_seed);
  if (a.has_seed) {
    EXPECT_EQ(a.seed, b.seed);
  }
}

TEST(ScenarioSpecParse, ParsesEveryField) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    # a comment
    name = my_scenario
    datasets = s-mnist, s-cifar10
    methods = rate, burst+WS, ttas(5)+WS
    noise = input:0.05, deletion:sweep, jitter:0.5
    levels = 0, 0.1, 0.5
    images = 12
    seed = 1234
  )");
  EXPECT_EQ(spec.name, "my_scenario");
  EXPECT_EQ(spec.datasets,
            (std::vector<std::string>{"s-mnist", "s-cifar10"}));
  ASSERT_EQ(spec.methods.size(), 3u);
  EXPECT_EQ(spec.methods[0].label, "rate");
  EXPECT_EQ(spec.methods[1].label, "burst+WS");
  EXPECT_TRUE(spec.methods[1].weight_scaling);
  EXPECT_EQ(spec.methods[2].label, "ttas(5)+WS");
  EXPECT_EQ(spec.methods[2].params.burst_duration, 5u);
  ASSERT_EQ(spec.noise.size(), 3u);
  EXPECT_EQ(spec.noise[0].kind, NoiseLayerSpec::Kind::kInput);
  EXPECT_DOUBLE_EQ(spec.noise[0].value, 0.05);
  EXPECT_TRUE(spec.noise[1].swept);
  EXPECT_EQ(spec.noise[1].kind, NoiseLayerSpec::Kind::kDeletion);
  EXPECT_EQ(spec.noise[2].kind, NoiseLayerSpec::Kind::kJitter);
  EXPECT_EQ(spec.levels, (std::vector<double>{0.0, 0.1, 0.5}));
  EXPECT_EQ(spec.images, 12u);
  EXPECT_TRUE(spec.has_seed);
  EXPECT_EQ(spec.seed, 1234u);
  EXPECT_EQ(spec.swept_layer(), 1u);
  EXPECT_EQ(spec.level_name(), "p");
}

TEST(ScenarioSpecParse, RoundTripsThroughToText) {
  ScenarioSpec spec;
  spec.name = "round_trip";
  spec.datasets = {"s-cifar10", "s-cifar20"};
  spec.methods = {parse_method_label("phase"), parse_method_label("ttfs+WS"),
                  parse_method_label("ttas(10)")};
  NoiseLayerSpec deletion;
  deletion.kind = NoiseLayerSpec::Kind::kDeletion;
  deletion.value = 0.25;
  NoiseLayerSpec jitter;
  jitter.kind = NoiseLayerSpec::Kind::kJitter;
  jitter.swept = true;
  NoiseLayerSpec device;
  device.kind = NoiseLayerSpec::Kind::kDevice;
  device.device = "mixed-signal";
  spec.noise = {deletion, jitter, device};
  spec.levels = {0.0, 0.5, 1.5, 4.0};
  spec.images = 24;
  spec.seed = 0xBEEF;
  spec.has_seed = true;

  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_text());
  expect_specs_equal(spec, reparsed);
  // And the canonical form is a fixed point.
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
}

TEST(ScenarioSpecParse, RoundTripsFractionalValuesExactly) {
  ScenarioSpec spec;
  spec.name = "fractions";
  spec.datasets = {"s-mnist"};
  spec.methods = {parse_method_label("rate")};
  NoiseLayerSpec layer;
  layer.kind = NoiseLayerSpec::Kind::kDeletion;
  layer.swept = true;
  spec.noise = {layer};
  spec.levels = {0.1, 0.2, 0.30000000000000004, 1e-3};
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_text());
  ASSERT_EQ(reparsed.levels.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reparsed.levels[i], spec.levels[i]) << "level " << i;
  }
}

TEST(ScenarioSpecParse, ParsesMultipleSections) {
  const auto specs = parse_scenarios(
      "[scenario]\nname = a\ndatasets = s-mnist\nmethods = rate\n"
      "[scenario]\nname = b\ndatasets = s-cifar10\nmethods = ttfs\n");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "a");
  EXPECT_EQ(specs[1].name, "b");
  EXPECT_EQ(specs[0].level_name(), "level");  // sweep-less
}

TEST(ScenarioSpecParse, LevelGridRule) {
  // The spec's levels, in order, when a layer sweeps them.
  const ScenarioSpec swept = ScenarioSpec::parse(
      "name = a\ndatasets = s-mnist\nmethods = rate\n"
      "noise = input:0.05, deletion:sweep\nlevels = 0.5, 0, 0.25\n");
  EXPECT_EQ(swept.level_grid(), (std::vector<double>{0.5, 0.0, 0.25}));

  // device:sweep enumerates the catalog's indices.
  const ScenarioSpec devices = ScenarioSpec::parse(
      "name = b\ndatasets = s-mnist\nmethods = rate\nnoise = device:sweep\n");
  const std::vector<double> grid = devices.level_grid();
  ASSERT_EQ(grid.size(), noise::device_catalog().size());
  for (std::size_t d = 0; d < grid.size(); ++d) {
    EXPECT_EQ(grid[d], static_cast<double>(d));
  }

  // No sweep: one clean column, with or without a fixed noise stack.
  for (const char* noise : {"", "noise = deletion:0.3\n"}) {
    const ScenarioSpec fixed = ScenarioSpec::parse(
        std::string("name = c\ndatasets = s-mnist\nmethods = rate\n") +
        noise);
    EXPECT_EQ(fixed.level_grid(), (std::vector<double>{0.0})) << noise;
  }
}

TEST(ScenarioSpecParse, ErrorPaths) {
  // Missing name.
  EXPECT_THROW(ScenarioSpec::parse("datasets = s-mnist\nmethods = rate\n"),
               InvalidArgument);
  // Missing datasets / methods.
  EXPECT_THROW(ScenarioSpec::parse("name = x\nmethods = rate\n"),
               InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"),
               InvalidArgument);
  // Unknown key.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nbogus = 1\n"),
               InvalidArgument);
  // Unknown method label.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = morse\n"),
               InvalidArgument);
  // Bad TTAS burst duration.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = ttas(zero)\n"),
               InvalidArgument);
  // Unknown noise kind and malformed layer.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nnoise = gamma:1\n"
                                   "levels = 0\n"),
               InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nnoise = deletion\n"),
               InvalidArgument);
  // Out-of-range deletion probability.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nnoise = deletion:1.5\n"),
               InvalidArgument);
  // Two swept layers.
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = deletion:sweep, jitter:sweep\n"
                          "levels = 0, 1\n"),
      InvalidArgument);
  // A sweep without levels, and levels without a sweep.
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = deletion:sweep\n"),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "levels = 0, 0.5\n"),
      InvalidArgument);
  // device:sweep must not carry levels.
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = device:sweep\nlevels = 0\n"),
      InvalidArgument);
  // Negative TTAS argument must not wrap through strtoull.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = ttas(-1)\n"),
               InvalidArgument);
  // Negative images/seed must not wrap either.
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nimages = -4\n"),
               InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nseed = -1\n"),
               InvalidArgument);
  // Swept levels carry the swept layer's range checks.
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = deletion:sweep\nlevels = 0, -0.5\n"),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = deletion:sweep\nlevels = 0, 1.5\n"),
      InvalidArgument);
  EXPECT_THROW(
      ScenarioSpec::parse("name = x\ndatasets = s-mnist\nmethods = rate\n"
                          "noise = jitter:sweep\nlevels = 0, -1\n"),
      InvalidArgument);
  // Duplicate key, bad number, unknown section.
  EXPECT_THROW(ScenarioSpec::parse("name = x\nname = y\n"
                                   "datasets = s-mnist\nmethods = rate\n"),
               InvalidArgument);
  EXPECT_THROW(ScenarioSpec::parse("name = x\ndatasets = s-mnist\n"
                                   "methods = rate\nimages = many\n"),
               InvalidArgument);
  EXPECT_THROW(parse_scenarios("[mystery]\nname = x\n"), InvalidArgument);
  EXPECT_THROW(parse_scenarios("   \n# only comments\n"), InvalidArgument);
}


// strtod accepts "inf", "nan" and overflowing decimals such as 1e999. A
// spec must reject them at parse, naming the line: an infinite level used
// to run as a sweep row, and a NaN one reached JitterNoise's constructor.
TEST(ScenarioSpecParse, RejectsNonFiniteNumbersNamingTheLine) {
  const std::string head = "name = x\ndatasets = s-mnist\nmethods = ttfs\n";
  const std::pair<std::string, std::string> cases[] = {
      {"noise = jitter:sweep\nlevels = inf\n", "line 5:"},
      {"noise = jitter:sweep\nlevels = nan\n", "line 5:"},
      {"noise = jitter:sweep\nlevels = 0, 1e999\n", "line 5:"},
      {"noise = input:sweep\nlevels = inf\n", "line 5:"},
      {"noise = jitter:1e999\n", "line 4:"},
      {"noise = deletion:0.1, jitter:-inf\n", "line 4:"},
  };
  for (const auto& [body, line] : cases) {
    try {
      ScenarioSpec::parse(head + body);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("scenario spec " + line),
                std::string::npos)
          << e.what();
    }
  }
}
TEST(ScenarioSpecParse, MethodLabelsInvertHelperLabels) {
  expect_methods_equal({parse_method_label("rate+WS")},
                       {baseline_method(Coding::kRate, true)});
  expect_methods_equal({parse_method_label("ttfs")},
                       {baseline_method(Coding::kTtfs, false)});
  expect_methods_equal({parse_method_label("ttas(7)+WS")},
                       {ttas_method(7, true)});
}

TEST(ScenarioBuiltins, SuitesParseAndAreWellFormed) {
  for (const std::string& name : builtin_suite_names()) {
    const auto specs = builtin_suite(name);
    EXPECT_FALSE(specs.empty()) << name;
    for (const ScenarioSpec& spec : specs) {
      EXPECT_FALSE(spec.name.empty());
      EXPECT_FALSE(spec.datasets.empty());
      EXPECT_FALSE(spec.methods.empty());
    }
  }
  EXPECT_THROW(builtin_suite("no-such-suite"), InvalidArgument);
  // The paper suite names its scenarios (and CSVs) after the figures.
  const auto paper = builtin_suite("paper");
  ASSERT_EQ(paper.size(), 8u);
  EXPECT_EQ(paper.front().name, "fig2_deletion_codings");
  EXPECT_EQ(paper.back().name, "table2_jitter");
  EXPECT_EQ(paper.back().datasets.size(), 3u);
}

// ------------------------------------------------------------------ engine --

snn::SnnModel tiny_model() {
  snn::SnnModel model(Shape{4});
  Tensor eye{Shape{4, 4}};
  for (std::size_t i = 0; i < 4; ++i) {
    eye(i, i) = 1.0f;
  }
  model.add_stage("hidden", std::make_unique<snn::DenseTopology>(eye));
  Tensor readout{Shape{2, 4}, {1, 1, 0, 0, 0, 0, 1, 1}};
  model.add_stage("readout", std::make_unique<snn::DenseTopology>(readout));
  return model;
}

struct Fixture {
  snn::SnnModel model = tiny_model();
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;

  Fixture() {
    Rng rng(3);
    for (int i = 0; i < 12; ++i) {
      Tensor x{Shape{4}};
      const std::size_t cls = i % 2;
      for (std::size_t j = 0; j < 4; ++j) {
        const bool hot = (j / 2) == cls;
        x[j] = static_cast<float>(rng.uniform(hot ? 0.6 : 0.05, hot ? 0.9 : 0.2));
      }
      images.push_back(std::move(x));
      labels.push_back(cls);
    }
  }

  ScenarioWorkload workload() const {
    ScenarioWorkload w;
    w.model = &model;
    w.images = &images;
    w.labels = &labels;
    return w;
  }

  /// Engine options resolving the dataset name "tiny" to this fixture.
  ScenarioEngine::Options options(std::size_t threads,
                                  std::uint64_t seed = 0xBEEF) const {
    ScenarioEngine::Options options;
    options.default_seed = seed;
    options.num_threads = threads;
    options.workload_provider = [this](const std::string& dataset,
                                       std::size_t) {
      return dataset == "tiny" ? workload() : ScenarioWorkload{};
    };
    return options;
  }
};

ScenarioSpec tiny_spec(const char* noise_line) {
  return ScenarioSpec::parse(std::string("name = tiny_scenario\n"
                                         "datasets = tiny\n"
                                         "methods = rate, burst+WS, "
                                         "ttas(3)+WS\n") +
                             noise_line);
}

/// The engine's reference for a one-dataset scenario with a single swept
/// deletion or jitter layer: every (method, level) row recomputed by a
/// plain snn::evaluate with the cell's noise and seed, on a model scaled by
/// weight_scaling_factor(p) for +WS deletion cells. It shares no code with
/// ScenarioEngine::compile or run_grid's scheduling.
std::vector<ScenarioRow> per_cell_reference(const Fixture& f,
                                            const ScenarioSpec& spec) {
  const bool deletion =
      spec.noise.at(0).kind == NoiseLayerSpec::Kind::kDeletion;
  std::vector<ScenarioRow> rows;
  for (const MethodSpec& method : spec.methods) {
    const snn::CodingSchemePtr scheme =
        coding::make_scheme(method.coding, method.params);
    for (const double level : spec.levels) {
      ScenarioRow row;
      row.method = method.label;
      row.level = level;
      row.ws_factor = method.weight_scaling && deletion && level > 0.0
                          ? weight_scaling_factor(level)
                          : 1.0f;
      snn::SnnModel model = f.model.clone();
      model.scale_all_weights(static_cast<float>(row.ws_factor));
      snn::NoiseModelPtr noise;
      if (level > 0.0) {
        noise = deletion ? noise::make_deletion(level)
                         : noise::make_jitter(level);
      }
      snn::EvalOptions options;
      options.base_seed = 0xBEEF;
      const snn::BatchResult r = snn::evaluate(model, *scheme, f.images,
                                               f.labels, noise.get(), options);
      row.accuracy = r.accuracy;
      row.mean_spikes = r.mean_spikes_per_image;
      row.mean_decision_timesteps = r.mean_decision_timesteps;
      rows.push_back(row);
    }
  }
  return rows;
}

void expect_rows_match(const std::vector<ScenarioRow>& got,
                       const std::vector<ScenarioRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].method, want[i].method) << "row " << i;
    EXPECT_EQ(got[i].level, want[i].level) << "row " << i;
    // Bit-identical, not approximately equal: every grid cell must run
    // exactly the evaluation its (method, level) names.
    EXPECT_EQ(got[i].accuracy, want[i].accuracy) << "row " << i;
    EXPECT_EQ(got[i].mean_spikes, want[i].mean_spikes) << "row " << i;
    EXPECT_EQ(got[i].mean_decision_timesteps, want[i].mean_decision_timesteps)
        << "row " << i;
    EXPECT_EQ(got[i].ws_factor, want[i].ws_factor) << "row " << i;
  }
}

TEST(ScenarioEngine, DeletionScenarioMatchesPerCellEvaluateAt1_2_8Threads) {
  const Fixture f;
  const ScenarioSpec spec =
      tiny_spec("noise = deletion:sweep\nlevels = 0, 0.3, 0.6\n");
  const auto reference = per_cell_reference(f, spec);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScenarioEngine engine(f.options(threads));
    const ScenarioResult result = engine.run_one(spec);
    EXPECT_EQ(result.level_name, "p");
    expect_rows_match(result.rows, reference);
  }
}

TEST(ScenarioEngine, JitterScenarioMatchesPerCellEvaluateAt1_2_8Threads) {
  const Fixture f;
  const ScenarioSpec spec =
      tiny_spec("noise = jitter:sweep\nlevels = 0, 1, 2.5\n");
  const auto reference = per_cell_reference(f, spec);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScenarioEngine engine(f.options(threads));
    const ScenarioResult result = engine.run_one(spec);
    EXPECT_EQ(result.level_name, "sigma");
    expect_rows_match(result.rows, reference);
  }
}

TEST(ScenarioEngine, JitterWeightScalingRunsUnscaled) {
  // WS compensates charge loss; jitter loses none, so a "+WS" method under
  // jitter runs the unscaled model, matches the plain method, and says so.
  const Fixture f;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name = jitter_ws\ndatasets = tiny\nmethods = rate+WS, rate\n"
      "noise = jitter:sweep\nlevels = 0, 2\n");
  ScenarioEngine engine(f.options(1));
  const ScenarioResult result = engine.run_one(spec);
  ASSERT_EQ(result.rows.size(), 4u);
  for (std::size_t l = 0; l < 2; ++l) {
    const ScenarioRow& ws = result.rows[l];
    const ScenarioRow& plain = result.rows[2 + l];
    EXPECT_EQ(ws.method, "rate+WS");  // the label still names the spec
    EXPECT_EQ(ws.ws_factor, 1.0);
    EXPECT_EQ(ws.accuracy, plain.accuracy);
    EXPECT_EQ(ws.mean_spikes, plain.mean_spikes);
  }
}

TEST(ScenarioEngine, RowsStreamInGridOrder) {
  const Fixture f;
  ScenarioSpec spec = tiny_spec("noise = jitter:sweep\nlevels = 0, 1, 2\n");
  ScenarioEngine::Options options = f.options(4);
  std::vector<std::size_t> cells;
  std::vector<std::pair<std::size_t, std::string>> streamed;
  options.on_cell = [&](std::size_t c, std::size_t s, const ScenarioRow& row) {
    cells.push_back(c);
    streamed.emplace_back(s, row.method + "@" +
                                 std::to_string(row.level));
  };
  ScenarioEngine engine(options);
  const ScenarioResult result = engine.run_one(spec);
  ASSERT_EQ(streamed.size(), result.rows.size());
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(cells[i], i);  // global cell indices run 0..n-1
    EXPECT_EQ(streamed[i].first, 0u);
    EXPECT_EQ(streamed[i].second,
              result.rows[i].method + "@" +
                  std::to_string(result.rows[i].level));
  }
}

TEST(ScenarioEngine, MultiScenarioSuiteKeepsPerScenarioRows) {
  const Fixture f;
  const ScenarioSpec del =
      tiny_spec("noise = deletion:sweep\nlevels = 0, 0.5\n");
  ScenarioSpec clean = ScenarioSpec::parse(
      "name = clean_point\ndatasets = tiny\nmethods = rate, ttfs\n");
  ScenarioEngine engine(f.options(2));
  const auto results = engine.run({del, clean});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].rows.size(), 6u);  // 3 methods x 2 levels
  EXPECT_EQ(results[1].rows.size(), 2u);  // 2 methods x 1 clean point
  EXPECT_EQ(results[1].level_name, "level");
  for (const ScenarioRow& row : results[1].rows) {
    EXPECT_EQ(row.noise, "clean");
    EXPECT_EQ(row.ws_factor, 1.0);
  }
}

TEST(ScenarioEngine, FixedStackAppliesWeightScalingFromDeletionComponents) {
  // A fixed (sweep-less) deletion layer still earns +WS methods the paper's
  // compensation, with the factor taken from the stack's deletion total.
  const Fixture f;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name = fixed\ndatasets = tiny\nmethods = rate, rate+WS\n"
      "noise = deletion:0.4, jitter:0.5\n");
  ScenarioEngine engine(f.options(1));
  const ScenarioResult result = engine.run_one(spec);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].ws_factor, 1.0);
  EXPECT_EQ(result.rows[1].ws_factor,
            static_cast<double>(weight_scaling_factor(0.4)));
  EXPECT_NE(result.rows[0].noise.find("deletion"), std::string::npos);
  EXPECT_NE(result.rows[0].noise.find("jitter"), std::string::npos);
}

TEST(ScenarioEngine, DeviceSweepEnumeratesTheCatalog) {
  const Fixture f;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name = dev\ndatasets = tiny\nmethods = rate\nnoise = device:sweep\n");
  ScenarioEngine engine(f.options(2));
  const ScenarioResult result = engine.run_one(spec);
  const auto& catalog = noise::device_catalog();
  ASSERT_EQ(result.rows.size(), catalog.size());
  EXPECT_EQ(result.level_name, "device");
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(result.rows[i].level, static_cast<double>(i));
    EXPECT_NE(result.rows[i].noise.find(catalog[i].name), std::string::npos);
  }
  // The clean device really is clean.
  EXPECT_EQ(result.rows[0].noise, "device:" + catalog[0].name);
}

TEST(ScenarioEngine, UnknownDatasetThrows) {
  const Fixture f;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name = x\ndatasets = no-such-dataset\nmethods = rate\n");
  ScenarioEngine engine(f.options(1));
  EXPECT_THROW(engine.run_one(spec), InvalidArgument);
}

TEST(ScenarioEngine, UnknownDeviceThrowsAtCompile) {
  const Fixture f;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "name = x\ndatasets = tiny\nmethods = rate\n"
      "noise = device:warp-core\n");
  ScenarioEngine engine(f.options(1));
  EXPECT_THROW(engine.run_one(spec), InvalidArgument);
}

TEST(ScenarioEngine, InputNoiseLayerChangesResultsDeterministically) {
  const Fixture f;
  const ScenarioSpec clean = ScenarioSpec::parse(
      "name = clean\ndatasets = tiny\nmethods = rate\n");
  const ScenarioSpec noisy = ScenarioSpec::parse(
      "name = noisy\ndatasets = tiny\nmethods = rate\nnoise = input:0.25\n");
  ScenarioEngine engine(f.options(1));
  const double clean_spikes = engine.run_one(clean).rows[0].mean_spikes;
  const double noisy_a = engine.run_one(noisy).rows[0].mean_spikes;
  const double noisy_b = engine.run_one(noisy).rows[0].mean_spikes;
  EXPECT_EQ(noisy_a, noisy_b);        // fixed seed -> identical corruption
  EXPECT_NE(noisy_a, clean_spikes);   // the corruption really applied
}

}  // namespace
}  // namespace tsnn::core
