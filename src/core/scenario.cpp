#include "core/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "coding/registry.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/weight_scaling.h"
#include "noise/device_profile.h"
#include "noise/input_noise.h"
#include "noise/noise.h"

namespace tsnn::core {

namespace {

// -------------------------------------------------------------- spec text --

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw InvalidArgument("scenario spec line " + std::to_string(line) + ": " +
                        what);
}

/// A finite decimal: strtod's "inf", "nan" and overflowing values such as
/// 1e999 are rejected here, naming the line, like any other bad number.
double parse_double(const std::string& s, std::size_t line,
                    const char* what) {
  const std::string t = str::trim(s);
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size() || !std::isfinite(v)) {
    parse_error(line, std::string("bad ") + what + " '" + t + "'");
  }
  return v;
}

std::uint64_t parse_uint(const std::string& s, std::size_t line,
                         const char* what) {
  const std::string t = str::trim(s);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 0);
  // strtoull silently wraps negatives; reject them explicitly.
  if (t.empty() || t.front() == '-' || end != t.c_str() + t.size()) {
    parse_error(line, std::string("bad ") + what + " '" + t + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Shortest round-trip decimal form of `v` ("0.1", not "0.100000...").
std::string format_double(double v) { return str::round_trip(v); }

/// Comma-separated, trimmed, empties rejected by callers as needed.
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  for (const std::string& part : str::split(s, ',')) {
    const std::string t = str::trim(part);
    if (!t.empty()) {
      out.push_back(t);
    }
  }
  return out;
}

const char* layer_kind_name(NoiseLayerSpec::Kind kind) {
  switch (kind) {
    case NoiseLayerSpec::Kind::kDeletion: return "deletion";
    case NoiseLayerSpec::Kind::kJitter: return "jitter";
    case NoiseLayerSpec::Kind::kInput: return "input";
    case NoiseLayerSpec::Kind::kSaltPepper: return "saltpepper";
    case NoiseLayerSpec::Kind::kDevice: return "device";
  }
  return "?";
}

NoiseLayerSpec parse_layer(const std::string& token, std::size_t line) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) {
    parse_error(line, "noise layer '" + token +
                          "' needs kind:value (e.g. deletion:0.3)");
  }
  const std::string kind_str = str::trim(token.substr(0, colon));
  const std::string value_str = str::trim(token.substr(colon + 1));

  NoiseLayerSpec layer;
  if (kind_str == "deletion") {
    layer.kind = NoiseLayerSpec::Kind::kDeletion;
  } else if (kind_str == "jitter") {
    layer.kind = NoiseLayerSpec::Kind::kJitter;
  } else if (kind_str == "input") {
    layer.kind = NoiseLayerSpec::Kind::kInput;
  } else if (kind_str == "saltpepper") {
    layer.kind = NoiseLayerSpec::Kind::kSaltPepper;
  } else if (kind_str == "device") {
    layer.kind = NoiseLayerSpec::Kind::kDevice;
  } else {
    parse_error(line, "unknown noise layer kind '" + kind_str + "'");
  }

  if (layer.kind == NoiseLayerSpec::Kind::kDevice) {
    if (value_str.empty()) {
      parse_error(line, "device layer needs a profile name or 'sweep'");
    }
    if (value_str == "sweep") {
      layer.swept = true;
    } else {
      layer.device = value_str;
    }
    return layer;
  }

  if (value_str == "sweep") {
    layer.swept = true;
    return layer;
  }
  layer.value = parse_double(value_str, line, "noise layer value");
  const bool unit_range = layer.kind == NoiseLayerSpec::Kind::kDeletion ||
                          layer.kind == NoiseLayerSpec::Kind::kSaltPepper;
  if (layer.value < 0.0 || (unit_range && layer.value > 1.0)) {
    parse_error(line, std::string(layer_kind_name(layer.kind)) +
                          " value " + value_str + " out of range");
  }
  return layer;
}

/// Parses the early_exit value: "off" or a comma list of margin:M, min:N,
/// deadline:D tokens -- the format snn::DecisionPolicy::describe() emits,
/// so specs round-trip through to_text().
snn::DecisionPolicy parse_early_exit(const std::string& value,
                                     std::size_t line) {
  snn::DecisionPolicy policy;
  if (str::trim(value) == "off") {
    return policy;
  }
  for (const std::string& token : split_list(value)) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      parse_error(line, "early_exit token '" + token +
                            "' needs kind:value (e.g. margin:0.2)");
    }
    const std::string kind = str::trim(token.substr(0, colon));
    const std::string val = str::trim(token.substr(colon + 1));
    if (kind == "margin") {
      policy.mode = snn::DecisionPolicy::Mode::kMargin;
      policy.margin =
          static_cast<float>(parse_double(val, line, "early_exit margin"));
      if (policy.margin < 0.0f) {
        parse_error(line, "early_exit margin must be >= 0");
      }
    } else if (kind == "min") {
      policy.min_timesteps = static_cast<std::size_t>(
          parse_uint(val, line, "early_exit min"));
    } else if (kind == "deadline") {
      policy.deadline = static_cast<std::size_t>(
          parse_uint(val, line, "early_exit deadline"));
      if (policy.deadline == 0) {
        parse_error(line, "early_exit deadline must be >= 1");
      }
    } else {
      parse_error(line, "unknown early_exit token kind '" + kind + "'");
    }
  }
  if (!policy.enabled()) {
    parse_error(line,
                "early_exit needs margin: or deadline: (or the value 'off')");
  }
  return policy;
}

/// Validates the cross-field constraints a fully parsed spec must satisfy.
void validate_spec(const ScenarioSpec& spec, std::size_t line) {
  if (spec.name.empty()) {
    parse_error(line, "scenario needs a name");
  }
  if (spec.datasets.empty()) {
    parse_error(line, "scenario '" + spec.name + "' needs datasets");
  }
  if (spec.methods.empty()) {
    parse_error(line, "scenario '" + spec.name + "' needs methods");
  }
  std::size_t swept = 0;
  bool device_sweep = false;
  for (const NoiseLayerSpec& layer : spec.noise) {
    if (layer.swept) {
      ++swept;
      device_sweep = layer.kind == NoiseLayerSpec::Kind::kDevice;
      if (!device_sweep) {
        // The level grid feeds this layer's magnitude; hold it to the same
        // range checks a fixed value gets in parse_layer.
        const bool unit_range =
            layer.kind == NoiseLayerSpec::Kind::kDeletion ||
            layer.kind == NoiseLayerSpec::Kind::kSaltPepper;
        for (const double level : spec.levels) {
          if (level < 0.0 || (unit_range && level > 1.0)) {
            parse_error(line, "scenario '" + spec.name + "': level " +
                                  format_double(level) + " out of range for " +
                                  layer_kind_name(layer.kind));
          }
        }
      }
    }
  }
  if (swept > 1) {
    parse_error(line, "scenario '" + spec.name +
                          "' has more than one 'sweep' noise layer");
  }
  if (device_sweep && !spec.levels.empty()) {
    parse_error(line, "scenario '" + spec.name +
                          "': device:sweep enumerates the whole catalog; "
                          "'levels' must be omitted");
  }
  if (swept == 1 && !device_sweep && spec.levels.empty()) {
    parse_error(line, "scenario '" + spec.name +
                          "' sweeps a noise layer but has no 'levels'");
  }
  if (swept == 0 && !spec.levels.empty()) {
    parse_error(line, "scenario '" + spec.name +
                          "' has 'levels' but no 'sweep' noise layer");
  }
}

/// Parses the key=value body of one [scenario] section. `lines` are
/// (line number, content) pairs with comments already stripped.
ScenarioSpec parse_section(
    const std::vector<std::pair<std::size_t, std::string>>& lines) {
  ScenarioSpec spec;
  std::vector<std::string> seen;
  std::size_t last_line = lines.empty() ? 0 : lines.front().first;
  for (const auto& [line, content] : lines) {
    last_line = line;
    const std::size_t eq = content.find('=');
    if (eq == std::string::npos) {
      parse_error(line, "expected key = value, got '" + content + "'");
    }
    const std::string key = str::trim(content.substr(0, eq));
    const std::string value = str::trim(content.substr(eq + 1));
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      parse_error(line, "duplicate key '" + key + "'");
    }
    seen.push_back(key);

    if (key == "name") {
      spec.name = value;
    } else if (key == "datasets") {
      spec.datasets = split_list(value);
    } else if (key == "methods") {
      for (const std::string& label : split_list(value)) {
        try {
          spec.methods.push_back(parse_method_label(label));
        } catch (const InvalidArgument& e) {
          parse_error(line, e.what());
        }
      }
    } else if (key == "noise") {
      for (const std::string& token : split_list(value)) {
        spec.noise.push_back(parse_layer(token, line));
      }
    } else if (key == "levels") {
      for (const std::string& token : split_list(value)) {
        spec.levels.push_back(parse_double(token, line, "level"));
      }
    } else if (key == "images") {
      spec.images = static_cast<std::size_t>(parse_uint(value, line, "images"));
    } else if (key == "seed") {
      spec.seed = parse_uint(value, line, "seed");
      spec.has_seed = true;
    } else if (key == "early_exit") {
      spec.early_exit = parse_early_exit(value, line);
    } else {
      parse_error(line, "unknown key '" + key + "'");
    }
  }
  validate_spec(spec, last_line);
  return spec;
}

}  // namespace

MethodSpec parse_method_label(const std::string& label) {
  std::string body = str::trim(label);
  bool ws = false;
  if (str::ends_with(body, "+WS")) {
    ws = true;
    body = body.substr(0, body.size() - 3);
  }
  if (str::starts_with(body, "ttas(") && str::ends_with(body, ")")) {
    const std::string arg = body.substr(5, body.size() - 6);
    char* end = nullptr;
    const unsigned long long ta = std::strtoull(arg.c_str(), &end, 10);
    // Reject '-' up front: strtoull would wrap ttas(-1) to 2^64-1.
    TSNN_CHECK_MSG(!arg.empty() && arg.front() != '-' &&
                       end == arg.c_str() + arg.size() && ta >= 1 &&
                       ta <= 1000,
                   "bad TTAS burst duration in method label '" << label << "'");
    return ttas_method(static_cast<std::size_t>(ta), ws);
  }
  for (const snn::Coding coding :
       {snn::Coding::kRate, snn::Coding::kPhase, snn::Coding::kBurst,
        snn::Coding::kTtfs, snn::Coding::kTtas}) {
    if (snn::coding_name(coding) == body) {
      return baseline_method(coding, ws);
    }
  }
  throw InvalidArgument("unknown method label '" + label +
                        "' (expected a coding name, optionally +WS, or "
                        "ttas(t_a))");
}

std::size_t ScenarioSpec::swept_layer() const {
  for (std::size_t i = 0; i < noise.size(); ++i) {
    if (noise[i].swept) {
      return i;
    }
  }
  return kNoSweep;
}

std::string ScenarioSpec::level_name() const {
  const std::size_t s = swept_layer();
  if (s == kNoSweep) {
    return "level";
  }
  switch (noise[s].kind) {
    case NoiseLayerSpec::Kind::kDeletion: return "p";
    case NoiseLayerSpec::Kind::kJitter: return "sigma";
    case NoiseLayerSpec::Kind::kInput: return "sigma_in";
    case NoiseLayerSpec::Kind::kSaltPepper: return "rate_in";
    case NoiseLayerSpec::Kind::kDevice: return "device";
  }
  return "level";
}

std::vector<double> ScenarioSpec::level_grid() const {
  std::vector<double> grid = levels;
  const std::size_t s = swept_layer();
  if (s != kNoSweep && noise[s].kind == NoiseLayerSpec::Kind::kDevice) {
    for (std::size_t d = 0; d < noise::device_catalog().size(); ++d) {
      grid.push_back(static_cast<double>(d));
    }
  }
  if (grid.empty()) {
    grid.push_back(0.0);
  }
  return grid;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  const std::vector<ScenarioSpec> specs = parse_scenarios(text);
  TSNN_CHECK_MSG(specs.size() == 1, "expected exactly one scenario, got "
                                        << specs.size());
  return specs.front();
}

std::string ScenarioSpec::to_text() const {
  std::string out = "[scenario]\n";
  out += "name = " + name + "\n";
  out += "datasets = " + str::join(datasets, ", ") + "\n";
  std::vector<std::string> method_labels;
  for (const MethodSpec& m : methods) {
    method_labels.push_back(m.label);
  }
  out += "methods = " + str::join(method_labels, ", ") + "\n";
  if (!noise.empty()) {
    std::vector<std::string> layers;
    for (const NoiseLayerSpec& layer : noise) {
      std::string token = std::string(layer_kind_name(layer.kind)) + ":";
      if (layer.swept) {
        token += "sweep";
      } else if (layer.kind == NoiseLayerSpec::Kind::kDevice) {
        token += layer.device;
      } else {
        token += format_double(layer.value);
      }
      layers.push_back(std::move(token));
    }
    out += "noise = " + str::join(layers, ", ") + "\n";
  }
  if (!levels.empty()) {
    std::vector<std::string> level_strs;
    for (const double level : levels) {
      level_strs.push_back(format_double(level));
    }
    out += "levels = " + str::join(level_strs, ", ") + "\n";
  }
  if (images != 0) {
    out += "images = " + std::to_string(images) + "\n";
  }
  if (has_seed) {
    out += "seed = " + std::to_string(seed) + "\n";
  }
  if (early_exit.enabled()) {
    out += "early_exit = " + early_exit.describe() + "\n";
  }
  return out;
}

std::vector<ScenarioSpec> parse_scenarios(const std::string& text) {
  std::vector<ScenarioSpec> specs;
  std::vector<std::pair<std::size_t, std::string>> section;
  bool in_section = false;

  const auto flush = [&] {
    if (in_section) {
      specs.push_back(parse_section(section));
      section.clear();
    }
  };

  const std::vector<std::string> lines = str::split(text, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    std::string content = lines[i];
    const std::size_t hash = content.find('#');
    if (hash != std::string::npos) {
      content = content.substr(0, hash);
    }
    content = str::trim(content);
    if (content.empty()) {
      continue;
    }
    if (content == "[scenario]") {
      flush();
      in_section = true;
      continue;
    }
    if (content.front() == '[') {
      parse_error(line_no, "unknown section '" + content + "'");
    }
    if (!in_section) {
      // Headerless text is accepted as a single anonymous section (the
      // ScenarioSpec::parse convenience), but only before any [scenario].
      in_section = true;
    }
    section.emplace_back(line_no, content);
  }
  flush();
  TSNN_CHECK_MSG(!specs.empty(), "scenario text contains no scenarios");
  return specs;
}

// ------------------------------------------------------------------ suites --

namespace {

/// The paper's sweep cells (figs 2-8 + tables I-II) as scenario text, one
/// scenario (and CSV) per figure or table (fig5 is a pure encoding analysis
/// with no sweep; it stays a dedicated bench).
constexpr const char* kPaperSuite = R"(
[scenario]
name = fig2_deletion_codings
datasets = s-cifar10
methods = rate, phase, burst, ttfs
noise = deletion:sweep
levels = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9

[scenario]
name = fig3_jitter_codings
datasets = s-cifar10
methods = rate, phase, burst, ttfs
noise = jitter:sweep
levels = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4

[scenario]
name = fig4_deletion_ws_ttas
datasets = s-cifar10
methods = rate+WS, phase+WS, burst+WS, ttfs+WS, ttas(1)+WS, ttas(2)+WS, ttas(3)+WS, ttas(4)+WS, ttas(5)+WS
noise = deletion:sweep
levels = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9

[scenario]
name = fig6_jitter_ttas
datasets = s-cifar10
methods = ttfs, ttas(1), ttas(2), ttas(3), ttas(4), ttas(5), ttas(10)
noise = jitter:sweep
levels = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4

[scenario]
name = fig7_deletion_comparison
datasets = s-cifar10
methods = rate, phase, burst, ttfs, rate+WS, phase+WS, burst+WS, ttfs+WS, ttas(5)+WS
noise = deletion:sweep
levels = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9

[scenario]
name = fig8_jitter_comparison
datasets = s-cifar10
methods = rate, phase, burst, ttfs, ttas(10)
noise = jitter:sweep
levels = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4

[scenario]
name = table1_deletion
datasets = s-mnist, s-cifar10, s-cifar20
methods = rate+WS, phase+WS, burst+WS, ttfs+WS, ttas(5)+WS
noise = deletion:sweep
levels = 0, 0.2, 0.5, 0.8

[scenario]
name = table2_jitter
datasets = s-mnist, s-cifar10, s-cifar20
methods = phase, burst, ttfs, ttas(10)
noise = jitter:sweep
levels = 0, 1, 2, 3
)";

/// Every catalog device across all three zoo models -- the deployment
/// questionnaire ("which coding do I ship on this fabric?") as one suite.
constexpr const char* kDevicesSuite = R"(
[scenario]
name = devices
datasets = s-mnist, s-cifar10, s-cifar20
methods = rate+WS, ttfs, ttfs+WS, ttas(5)+WS
noise = device:sweep

[scenario]
name = devices_anytime
datasets = s-mnist
methods = ttfs, ttas(5)
noise = device:sweep
early_exit = margin:0.1, min:2
)";

/// Mixed stacks the paper never ran: deletion and jitter together, and
/// spike noise on top of corrupted inputs.
constexpr const char* kStressSuite = R"(
[scenario]
name = stress_deletion_jitter
datasets = s-cifar10
methods = rate+WS, burst+WS, ttfs, ttas(5)+WS
noise = deletion:sweep, jitter:1
levels = 0, 0.2, 0.4, 0.6, 0.8

[scenario]
name = stress_jitter_under_input
datasets = s-cifar10
methods = burst, ttfs, ttas(5), ttas(10)
noise = input:0.05, jitter:sweep
levels = 0, 1, 2, 3, 4

[scenario]
name = stress_triple_stack
datasets = s-mnist
methods = rate+WS, ttfs+WS, ttas(5)+WS
noise = input:0.05, deletion:sweep, jitter:0.5
levels = 0, 0.1, 0.3, 0.5, 0.7

[scenario]
name = stress_anytime_deletion
datasets = s-mnist
methods = rate, ttfs, ttas(5)
noise = deletion:sweep
levels = 0, 0.2, 0.4
early_exit = margin:0.1, min:2
)";

}  // namespace

const std::vector<std::string>& builtin_suite_names() {
  static const std::vector<std::string> kNames = {"paper", "devices",
                                                  "stress"};
  return kNames;
}

std::vector<ScenarioSpec> builtin_suite(const std::string& name) {
  if (name == "paper") {
    return parse_scenarios(kPaperSuite);
  }
  if (name == "devices") {
    return parse_scenarios(kDevicesSuite);
  }
  if (name == "stress") {
    return parse_scenarios(kStressSuite);
  }
  throw InvalidArgument("unknown built-in suite '" + name + "' (have: " +
                        str::join(builtin_suite_names(), ", ") + ")");
}

// ----------------------------------------------------------------- engine --

ZooWorkload load_zoo_workload(DatasetKind kind, std::size_t max_images) {
  const Stopwatch watch;
  ZooWorkload w;
  w.kind = kind;
  std::optional<ConvertedModel> converted = load_converted(kind);
  data::Dataset test;
  if (converted) {
    test = make_dataset(kind, {.train = 0, .test = max_images}).test;
  } else {
    data::DatasetPair data = make_dataset(kind);
    converted = convert_and_cache(kind, data);
    test = std::move(data.test);
  }
  w.dnn_accuracy = converted->dnn_test_accuracy;
  w.conversion = std::move(converted->conversion);
  w.from_artifact_cache = converted->loaded_from_cache;

  const std::size_t n = std::min(max_images, test.size());
  test.images.resize(n);
  test.labels.resize(n);
  w.test_images = std::move(test.images);
  w.test_labels = std::move(test.labels);
  w.prep_seconds = watch.elapsed();
  return w;
}

/// Engine-cached workload: the converted zoo bundle with the longest test
/// prefix any compiled suite has asked for, plus its scaled-clone cache,
/// both surviving across run() calls. Conversion is independent of how
/// many images a scenario evaluates, so specs with different image counts
/// share one conversion and one clone cache, and shorter counts get their
/// own prefix *slices* of the cached prefix.
struct ScenarioEngine::CachedWorkload {
  ZooWorkload data;          ///< test prefix of min(prepared, split) images
  std::size_t prepared = 0;  ///< largest image count asked for so far
  std::unique_ptr<ScaledModelCache> scaled;
  /// images-count -> (images, labels) prefix slice of the cached prefix.
  std::map<std::size_t,
           std::pair<std::vector<Tensor>, std::vector<std::size_t>>>
      slices;
};

ScenarioEngine::ScenarioEngine() : ScenarioEngine(Options{}) {}

ScenarioEngine::ScenarioEngine(Options options)
    : options_(std::move(options)) {}

ScenarioEngine::~ScenarioEngine() = default;

ScenarioWorkload ScenarioEngine::resolve_workload(const std::string& dataset,
                                                  std::size_t images,
                                                  std::size_t prepare) {
  if (options_.workload_provider) {
    ScenarioWorkload provided = options_.workload_provider(dataset, images);
    if (provided.model != nullptr) {
      TSNN_CHECK_MSG(provided.images != nullptr && provided.labels != nullptr,
                     "workload provider returned a model without data for '"
                         << dataset << "'");
      return provided;
    }
  }
  DatasetKind kind;
  TSNN_CHECK_MSG(dataset_kind_from_name(dataset, &kind),
                 "unknown dataset '" << dataset
                                     << "' (not a zoo dataset, and no "
                                        "workload provider resolved it)");
  auto it = workloads_.find(dataset);
  if (it == workloads_.end()) {
    auto cached = std::make_unique<CachedWorkload>();
    cached->data = load_zoo_workload(kind, prepare);
    cached->prepared = prepare;
    zoo_prep_.seconds += cached->data.prep_seconds;
    ++zoo_prep_.loads;
    if (cached->data.from_artifact_cache) {
      ++zoo_prep_.artifact_hits;
    }
    cached->scaled =
        std::make_unique<ScaledModelCache>(cached->data.conversion.model);
    it = workloads_.emplace(dataset, std::move(cached)).first;
  }
  CachedWorkload& cw = *it->second;
  if (cw.prepared < prepare) {
    // An earlier run() prepared fewer images: append the longer prefix's
    // tail in place, keeping the model and its clone cache. No cell holds a
    // view of these vectors now -- compile() asks for its largest count
    // before its first view, and an earlier run's cells are gone.
    const Stopwatch watch;
    data::Dataset test = make_dataset(kind, {.train = 0, .test = prepare}).test;
    for (std::size_t i = cw.data.test_images.size(); i < test.size(); ++i) {
      cw.data.test_images.push_back(std::move(test.images[i]));
      cw.data.test_labels.push_back(test.labels[i]);
    }
    cw.prepared = prepare;
    zoo_prep_.seconds += watch.elapsed();
  }
  ScenarioWorkload view;
  view.model = &cw.data.conversion.model;
  const std::size_t n = std::min(images, cw.data.test_images.size());
  if (n == cw.data.test_images.size()) {
    view.images = &cw.data.test_images;
    view.labels = &cw.data.test_labels;
    return view;
  }
  auto slice = cw.slices.find(n);
  if (slice == cw.slices.end()) {
    std::pair<std::vector<Tensor>, std::vector<std::size_t>> cut;
    cut.first.assign(cw.data.test_images.begin(),
                     cw.data.test_images.begin() +
                         static_cast<std::ptrdiff_t>(n));
    cut.second.assign(cw.data.test_labels.begin(),
                      cw.data.test_labels.begin() +
                          static_cast<std::ptrdiff_t>(n));
    slice = cw.slices.emplace(n, std::move(cut)).first;
  }
  view.images = &slice->second.first;
  view.labels = &slice->second.second;
  return view;
}

namespace {

/// The materialized noise stack of one (scenario, level) grid column,
/// shared by every (dataset, method) cell of that column.
struct ResolvedStack {
  snn::NoiseModelPtr spike;            ///< composed; null = clean
  noise::InputNoiseModelPtr input;     ///< composed; null = none
  float ws_factor = 1.0f;              ///< deletion compensation of the stack
  std::string description = "clean";
};

ResolvedStack resolve_stack(const std::vector<NoiseLayerSpec>& stack,
                            std::size_t swept_index, double level) {
  std::vector<snn::NoiseModelPtr> spike_layers;
  std::vector<noise::InputNoiseModelPtr> input_layers;
  std::vector<std::string> parts;
  float ws = 1.0f;

  for (std::size_t i = 0; i < stack.size(); ++i) {
    const NoiseLayerSpec& layer = stack[i];
    if (layer.kind == NoiseLayerSpec::Kind::kDevice) {
      const std::string name =
          i == swept_index
              ? noise::device_catalog()
                    .at(static_cast<std::size_t>(level))
                    .name
              : layer.device;
      const noise::DeviceProfile& device = noise::find_device(name);
      // A profile contributes its deletion then its jitter component --
      // the same order DeviceProfile::make_noise composes.
      if (device.deletion_p > 0.0) {
        spike_layers.push_back(noise::make_deletion(device.deletion_p));
        ws *= weight_scaling_factor(device.deletion_p);
      }
      if (device.jitter_sigma > 0.0) {
        spike_layers.push_back(noise::make_jitter(device.jitter_sigma));
      }
      parts.push_back("device:" + name);
      continue;
    }
    const double value = i == swept_index ? level : layer.value;
    if (value <= 0.0) {
      continue;  // a no-op layer draws nothing; dropping it is identity
    }
    switch (layer.kind) {
      case NoiseLayerSpec::Kind::kDeletion:
        spike_layers.push_back(noise::make_deletion(value));
        ws *= weight_scaling_factor(value);
        parts.push_back(spike_layers.back()->name());
        break;
      case NoiseLayerSpec::Kind::kJitter:
        spike_layers.push_back(noise::make_jitter(value));
        parts.push_back(spike_layers.back()->name());
        break;
      case NoiseLayerSpec::Kind::kInput:
        input_layers.push_back(
            std::make_unique<noise::GaussianInputNoise>(value));
        parts.push_back(input_layers.back()->name());
        break;
      case NoiseLayerSpec::Kind::kSaltPepper:
        input_layers.push_back(
            std::make_unique<noise::SaltPepperInputNoise>(value));
        parts.push_back(input_layers.back()->name());
        break;
      case NoiseLayerSpec::Kind::kDevice:
        break;  // handled above
    }
  }

  ResolvedStack resolved;
  resolved.ws_factor = ws;
  if (input_layers.size() == 1) {
    resolved.input = std::move(input_layers.front());
  } else if (input_layers.size() > 1) {
    resolved.input = std::make_unique<noise::CompositeInputNoise>(
        std::move(input_layers));
  }
  if (spike_layers.size() == 1) {
    resolved.spike = std::move(spike_layers.front());
  } else if (spike_layers.size() > 1) {
    resolved.spike =
        std::make_unique<noise::CompositeNoise>(std::move(spike_layers));
  }
  if (!parts.empty()) {
    resolved.description = str::join(parts, "+");
  }
  return resolved;
}

}  // namespace

/// The compiled form of one suite: the flat cell stream plus the arenas
/// everything points into. run() schedules it; plan() projects it into
/// CellPlans. Compilation is deterministic, so compiling the same suite
/// twice (e.g. plan() for a checkpoint, then run()) yields the same cell
/// order -- the property resume and sharding stand on.
struct ScenarioEngine::Compiled {
  /// Row skeleton of each cell, filled by the grid's on_cell stream.
  struct CellMeta {
    std::size_t scenario;
    ScenarioRow row;
  };
  std::vector<ScenarioResult> results;  ///< per-scenario skeletons
  std::vector<EvalCell> cells;
  std::vector<CellMeta> meta;
  // Arenas: raw pointers in `cells` target heap objects, so vector growth
  // during compilation is safe.
  std::vector<snn::CodingSchemePtr> schemes;
  std::vector<ResolvedStack> stacks;
  std::map<const snn::SnnModel*, std::unique_ptr<ScaledModelCache>>
      run_caches;  ///< for provider-resolved models (zoo models use the
                   ///< engine-cached ScaledModelCache)
};

std::unique_ptr<ScenarioEngine::Compiled> ScenarioEngine::compile(
    const std::vector<ScenarioSpec>& suite) {
  auto out = std::make_unique<Compiled>();
  std::vector<ScenarioResult>& results = out->results;
  results.reserve(suite.size());
  std::vector<snn::CodingSchemePtr>& schemes = out->schemes;
  std::vector<ResolvedStack>& stacks = out->stacks;

  const auto cache_for = [&](const snn::SnnModel* model) -> ScaledModelCache& {
    for (const auto& [key, cached] : workloads_) {
      if (&cached->data.conversion.model == model) {
        return *cached->scaled;
      }
    }
    auto& slot = out->run_caches[model];
    if (slot == nullptr) {
      slot = std::make_unique<ScaledModelCache>(*model);
    }
    return *slot;
  };

  std::vector<EvalCell>& cells = out->cells;
  std::vector<Compiled::CellMeta>& meta = out->meta;

  const auto images_of = [&](const ScenarioSpec& spec) {
    return spec.images != 0 ? spec.images : options_.default_images;
  };
  // Each zoo dataset is prepared at the largest image count any spec asks
  // of it, before its first view is taken: growing the cached prefix after
  // a cell holds a view would change the images that cell evaluates.
  std::map<std::string, std::size_t> prepare;
  for (const ScenarioSpec& spec : suite) {
    for (const std::string& dataset : spec.datasets) {
      std::size_t& n = prepare[dataset];
      n = std::max(n, images_of(spec));
    }
  }

  for (std::size_t s = 0; s < suite.size(); ++s) {
    const ScenarioSpec& spec = suite[s];
    ScenarioResult result;
    result.name = spec.name;
    result.level_name = spec.level_name();
    result.num_datasets = spec.datasets.size();
    results.push_back(std::move(result));

    const std::size_t images = images_of(spec);
    const std::uint64_t seed =
        spec.has_seed ? spec.seed : options_.default_seed;
    const std::size_t swept = spec.swept_layer();

    const std::vector<double> levels = spec.level_grid();

    // Stacks once per level column (shared across datasets and methods),
    // schemes once per method (shared across datasets and levels).
    const std::size_t stacks_base = stacks.size();
    for (const double level : levels) {
      stacks.push_back(resolve_stack(spec.noise, swept, level));
    }
    const std::size_t schemes_base = schemes.size();
    for (const MethodSpec& method : spec.methods) {
      schemes.push_back(coding::make_scheme(method.coding, method.params));
    }

    for (const std::string& dataset : spec.datasets) {
      const ScenarioWorkload w =
          resolve_workload(dataset, images, prepare.at(dataset));
      ScaledModelCache& cache = cache_for(w.model);
      for (std::size_t m = 0; m < spec.methods.size(); ++m) {
        const MethodSpec& method = spec.methods[m];
        for (std::size_t li = 0; li < levels.size(); ++li) {
          const ResolvedStack& stack = stacks[stacks_base + li];
          const float ws_factor =
              method.weight_scaling ? stack.ws_factor : 1.0f;
          EvalCell cell;
          cell.model = &cache.get(ws_factor);
          cell.scheme = schemes[schemes_base + m].get();
          cell.noise = stack.spike.get();
          cell.input_noise = stack.input.get();
          cell.images = w.images;
          cell.labels = w.labels;
          cell.seed = seed;
          cell.policy = spec.early_exit;
          cells.push_back(cell);

          Compiled::CellMeta cm;
          cm.scenario = s;
          cm.row.dataset = dataset;
          cm.row.method = method.label;
          cm.row.level = levels[li];
          cm.row.noise = stack.description;
          cm.row.ws_factor = static_cast<double>(ws_factor);
          meta.push_back(std::move(cm));
        }
      }
    }
  }
  return out;
}

std::vector<ScenarioResult> ScenarioEngine::run(
    const std::vector<ScenarioSpec>& suite) {
  const std::unique_ptr<Compiled> compiled = compile(suite);
  std::vector<ScenarioResult>& results = compiled->results;
  const std::vector<EvalCell>& cells = compiled->cells;

  GridOptions grid;
  grid.num_threads = options_.num_threads;
  grid.shard = options_.shard;
  grid.completed = options_.completed;
  grid.on_cell = [&](std::size_t c, const EvalCellResult& cell_result) {
    Compiled::CellMeta& cm = compiled->meta[c];
    cm.row.accuracy = cell_result.accuracy;
    cm.row.mean_spikes = cell_result.mean_spikes;
    cm.row.mean_decision_timesteps = cell_result.mean_decision_timesteps;
    ScenarioResult& result = results[cm.scenario];
    result.rows.push_back(cm.row);
    result.images_simulated += cells[c].images->size();
    if (options_.on_cell) {
      options_.on_cell(c, cm.scenario, cm.row);
    }
    TSNN_LOG(kInfo) << "[" << result.name << "] " << cm.row.dataset << "/"
                    << cm.row.method << " level " << cm.row.level << " acc "
                    << cm.row.accuracy;
  };
  run_grid(cells, grid);
  return std::move(results);
}

std::vector<CellPlan> ScenarioEngine::plan(
    const std::vector<ScenarioSpec>& suite) {
  const std::unique_ptr<Compiled> compiled = compile(suite);
  std::vector<CellPlan> plans(compiled->cells.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    plans[c].scenario = compiled->meta[c].scenario;
    plans[c].images = compiled->cells[c].images->size();
    plans[c].seed = compiled->cells[c].seed;
    plans[c].row = compiled->meta[c].row;
  }
  return plans;
}

ScenarioResult ScenarioEngine::run_one(const ScenarioSpec& spec) {
  std::vector<ScenarioResult> results = run({spec});
  return std::move(results.front());
}

}  // namespace tsnn::core
