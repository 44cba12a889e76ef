// Golden-conformance suite over the model zoo: fixed-seed accuracy, spike
// counts, and logits pinned for all 3 zoo models x 5 coding schemes x
// {clean, deletion, jitter} at TSNN_FAST scale.
//
// Four PRs of hot-path rewrites (batched propagation, event buffers, grid
// scheduling, the scenario engine) have each promised bit-identical
// results; this suite makes that promise enforceable END TO END -- training,
// conversion, encoding, simulation, noise, readout -- so the next rewrite
// cannot silently drift. Everything below is a pure function of fixed
// seeds: the datasets, the fast-mode training run, the conversion
// calibration, and the per-image noise streams. The suite reads through the
// persistent TSNZ artifact cache (warm cache = sub-second run; a cache hit
// is bit-identical to fresh conversion, which CacheHitMatchesFreshConvert
// pins in-process).
//
// Regenerating (after an INTENTIONAL semantics change only -- an accidental
// mismatch is a bug in the change, not in the goldens):
//   TSNN_GOLDEN_REGEN=1 ./build/test_golden_zoo
// prints the new kGolden table to stdout; paste it over the one below.
//
// Tolerances: accuracy and mean_spikes are exact rationals of integer
// counts and must match bit-for-bit. Logits carry a 1e-5 relative
// tolerance, like the simulator goldens in test_event_buffer.cpp, to
// absorb libm variation across platforms; on the capture platform the
// match is bit-exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "coding/registry.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/zoo.h"
#include "noise/noise.h"
#include "snn/simulator.h"

namespace tsnn::core {
namespace {

constexpr std::size_t kImages = 10;       ///< evaluation images per config
constexpr std::uint64_t kSeed = 0xBEEF;   ///< base of the per-image streams
constexpr double kDeletionP = 0.5;
constexpr double kJitterSigma = 2.0;

const std::vector<std::string>& method_labels() {
  static const std::vector<std::string> kLabels = {"rate", "phase", "burst",
                                                   "ttfs", "ttas(5)"};
  return kLabels;
}

const std::vector<std::string>& conditions() {
  static const std::vector<std::string> kConditions = {"clean", "deletion",
                                                       "jitter"};
  return kConditions;
}

snn::NoiseModelPtr make_condition_noise(const std::string& condition) {
  if (condition == "deletion") {
    return noise::make_deletion(kDeletionP);
  }
  if (condition == "jitter") {
    return noise::make_jitter(kJitterSigma);
  }
  return nullptr;  // clean
}

/// One measured configuration.
struct Measured {
  double accuracy = 0.0;
  double mean_spikes = 0.0;
  float logit0 = 0.0f;  ///< first three logits of image 0
  float logit1 = 0.0f;
  float logit2 = 0.0f;
  std::size_t spikes0 = 0;  ///< total spikes of image 0
};

/// The pinned values, regenerated via TSNN_GOLDEN_REGEN=1 (see file
/// comment). Order: dataset-major, then method, then condition.
struct Golden {
  const char* dataset;
  const char* method;
  const char* condition;
  double accuracy;
  double mean_spikes;
  double logit0;
  double logit1;
  double logit2;
  std::size_t spikes0;
};

constexpr Golden kGolden[] = {
    // clang-format off
    {"s-mnist", "rate", "clean", 0.10000000000000001, 28238.200000000001,
     20.8443604, -18.8488598, 11.3078451, 33557},
    {"s-mnist", "rate", "deletion", 0, 4004,
     0, 0, 0, 5073},
    {"s-mnist", "rate", "jitter", 0.10000000000000001, 28304.299999999999,
     20.6109619, -18.5488682, 10.706912, 33562},
    {"s-mnist", "phase", "clean", 0.10000000000000001, 82379,
     5.48051691, -4.70388699, 2.89520764, 86964},
    {"s-mnist", "phase", "deletion", 0.10000000000000001, 20490.299999999999,
     0.01656905, -0.0152744781, 0.0191000048, 22575},
    {"s-mnist", "phase", "jitter", 0, 109615.8,
     18.7949371, -11.9931803, 6.56463099, 112647},
    {"s-mnist", "burst", "clean", 0.10000000000000001, 46226.599999999999,
     49.2130928, -42.2050743, 25.4764977, 52142},
    {"s-mnist", "burst", "deletion", 0, 7120.3000000000002,
     0, 0, 0, 8820},
    {"s-mnist", "burst", "jitter", 0.10000000000000001, 48550.400000000001,
     35.4659576, -47.7545891, 22.3888206, 54476},
    {"s-mnist", "ttfs", "clean", 0.10000000000000001, 3462.5999999999999,
     1.09121156, -0.776443899, 0.445109099, 3440},
    {"s-mnist", "ttfs", "deletion", 0.20000000000000001, 1787.2,
     0.00891345367, -0.00647056708, 0.012145469, 1808},
    {"s-mnist", "ttfs", "jitter", 0.10000000000000001, 3577.5,
     0.890669107, -0.947742641, 0.484641075, 3542},
    {"s-mnist", "ttas(5)", "clean", 0.10000000000000001, 17313,
     1.09121132, -0.776444197, 0.445109069, 17200},
    {"s-mnist", "ttas(5)", "deletion", 0.10000000000000001, 8973.5,
     0.00183546927, -0.00728516001, 0.00255147601, 8913},
    {"s-mnist", "ttas(5)", "jitter", 0.40000000000000002, 17425,
     1.05654109, -1.11291742, 0.69342351, 17415},
    {"s-cifar10", "rate", "clean", 0, 35470.599999999999,
     -0.0219225213, -0.0742134079, -0.0474917814, 31562},
    {"s-cifar10", "rate", "deletion", 0, 11151.4,
     0, 0, 0, 11720},
    {"s-cifar10", "rate", "jitter", 0, 35810.199999999997,
     -0.00724861771, -0.0701224208, -0.060967423, 31925},
    {"s-cifar10", "phase", "clean", 0, 74312.199999999997,
     0.0316524617, -0.0330211036, -0.00569298584, 64299},
    {"s-cifar10", "phase", "deletion", 0.10000000000000001, 23347.400000000001,
     0.000995918876, -0.00208872161, 0.000880521722, 22487},
    {"s-cifar10", "phase", "jitter", 0.20000000000000001, 87730.699999999997,
     3.41935635, 0.323412627, -0.99388355, 82665},
    {"s-cifar10", "burst", "clean", 0, 50090.699999999997,
     0.095181115, -0.201263517, -0.0621016473, 42140},
    {"s-cifar10", "burst", "deletion", 0, 13832.5,
     0, 0, 0, 14494},
    {"s-cifar10", "burst", "jitter", 0.10000000000000001, 53130.900000000001,
     -0.242609069, 0.0141143659, 0.940854311, 48319},
    {"s-cifar10", "ttfs", "clean", 0, 2824.4000000000001,
     0.00966000557, -0.00290870108, 0.00354940374, 2642},
    {"s-cifar10", "ttfs", "deletion", 0.10000000000000001, 1617.2,
     0.00349562545, -0.00559207983, -0.00266249385, 1583},
    {"s-cifar10", "ttfs", "jitter", 0.10000000000000001, 2994.0999999999999,
     0.164904341, 0.0981270671, -0.0138788847, 2872},
    {"s-cifar10", "ttas(5)", "clean", 0, 14122,
     0.00966000836, -0.00290870131, 0.00354940235, 13210},
    {"s-cifar10", "ttas(5)", "deletion", 0, 7549.6000000000004,
     -0.000196979745, 0.000312426564, -0.000167338862, 7496},
    {"s-cifar10", "ttas(5)", "jitter", 0.10000000000000001, 14324,
     0.126597464, -0.162832499, 0.0141253518, 13575},
    {"s-cifar20", "rate", "clean", 0.20000000000000001, 45408.400000000001,
     3.08296466, 3.03859544, -2.49609971, 46272},
    {"s-cifar20", "rate", "deletion", 0, 12217.9,
     0, 0, 0, 13414},
    {"s-cifar20", "rate", "jitter", 0.20000000000000001, 45522.900000000001,
     3.09423375, 3.12953067, -2.30553246, 46442},
    {"s-cifar20", "phase", "clean", 0.20000000000000001, 93373.300000000003,
     0.809475482, 0.883767962, -0.636608064, 92798},
    {"s-cifar20", "phase", "deletion", 0.10000000000000001, 27384.299999999999,
     0.00492393225, 0.00214561936, -0.00629897369, 27871},
    {"s-cifar20", "phase", "jitter", 0.10000000000000001, 103017.39999999999,
     -0.41719076, 2.64318967, -3.02412629, 103920},
    {"s-cifar20", "burst", "clean", 0.20000000000000001, 65249.699999999997,
     7.04180908, 7.58997965, -4.95448875, 65908},
    {"s-cifar20", "burst", "deletion", 0, 14676.5,
     0, 0, 0, 15609},
    {"s-cifar20", "burst", "jitter", 0.20000000000000001, 67265,
     3.59222937, 7.23220301, -4.64380169, 68364},
    {"s-cifar20", "ttfs", "clean", 0.10000000000000001, 3169.5999999999999,
     0.158951029, 0.155002698, -0.100333318, 3165},
    {"s-cifar20", "ttfs", "deletion", 0.10000000000000001, 1851.9000000000001,
     -0.00162796362, 0.000232266626, -0.00432633236, 1832},
    {"s-cifar20", "ttfs", "jitter", 0.20000000000000001, 3462.0999999999999,
     0.144353762, 0.119737215, -0.168912157, 3500},
    {"s-cifar20", "ttas(5)", "clean", 0.10000000000000001, 15848,
     0.158951059, 0.155002698, -0.100333296, 15825},
    {"s-cifar20", "ttas(5)", "deletion", 0.20000000000000001, 8795,
     -0.000290183933, 6.98028307e-05, -0.00265245559, 8857},
    {"s-cifar20", "ttas(5)", "jitter", 0.10000000000000001, 16315,
     0.150340542, 0.187343791, -0.215475738, 16350},
    // clang-format on
};

bool regen_mode() { return std::getenv("TSNN_GOLDEN_REGEN") != nullptr; }

/// Loads the three fast zoo models once per process. Cache-hit conversion
/// is bit-identical to fresh conversion (pinned by CacheHitMatchesFreshConvert
/// below), so the suite runs against the persistent TSNN_ZOO_DIR artifact
/// cache: a warm cache makes the whole suite a sub-second `fast` test, a
/// cold one trains deterministically and leaves the cache warm. Under
/// TSNN_GOLDEN_REGEN=1 a scratch dir forces fresh training -- the goldens
/// pin training itself, so regeneration must never read a stale cache.
const std::vector<ZooWorkload>& workloads() {
  static const std::vector<ZooWorkload>* kWorkloads = [] {
    setenv("TSNN_FAST", "1", 1);
    std::string scratch;
    if (regen_mode()) {
      scratch =
          (std::filesystem::temp_directory_path() / "tsnn_golden_zoo").string();
      std::filesystem::remove_all(scratch);
      setenv("TSNN_ZOO_DIR", scratch.c_str(), 1);
    }
    auto* loaded = new std::vector<ZooWorkload>();
    for (const DatasetKind kind :
         {DatasetKind::kMnistLike, DatasetKind::kCifar10Like,
          DatasetKind::kCifar20Like}) {
      loaded->push_back(load_zoo_workload(kind, kImages));
    }
    if (regen_mode()) {
      unsetenv("TSNN_ZOO_DIR");
      std::filesystem::remove_all(scratch);
    }
    return loaded;
  }();
  return *kWorkloads;
}

Measured measure(const ZooWorkload& w, const std::string& method,
                 const std::string& condition) {
  const MethodSpec spec = parse_method_label(method);
  const snn::CodingSchemePtr scheme =
      coding::make_scheme(spec.coding, spec.params);
  const snn::NoiseModelPtr noise = make_condition_noise(condition);

  snn::EvalOptions options;
  options.base_seed = kSeed;
  const snn::BatchResult batch =
      snn::evaluate(w.conversion.model, *scheme, w.test_images, w.test_labels,
                    noise.get(), options);

  Measured m;
  m.accuracy = batch.accuracy;
  m.mean_spikes = batch.mean_spikes_per_image;

  // Image 0 under its evaluate() stream: logits pin the full numeric path,
  // not just the argmax.
  snn::SimResult r;
  if (noise == nullptr) {
    r = snn::simulate(snn::SimRequest{&w.conversion.model, scheme.get()},
                      w.test_images[0]);
  } else {
    Rng rng = Rng::for_stream(kSeed, 0);
    r = snn::simulate(
        snn::SimRequest{&w.conversion.model, scheme.get(), noise.get(), &rng},
        w.test_images[0]);
  }
  m.logit0 = r.logits[0];
  m.logit1 = r.logits[1];
  m.logit2 = r.logits[2];
  m.spikes0 = r.total_spikes;
  return m;
}

TEST(GoldenZoo, FixedSeedResultsArePinned) {
  const bool regen = std::getenv("TSNN_GOLDEN_REGEN") != nullptr;
  const std::size_t expected =
      workloads().size() * method_labels().size() * conditions().size();

  if (regen) {
    std::printf("constexpr Golden kGolden[] = {\n    // clang-format off\n");
  } else {
    ASSERT_EQ(std::size(kGolden), expected)
        << "golden table out of date; regenerate with TSNN_GOLDEN_REGEN=1";
  }

  std::size_t g = 0;
  for (const ZooWorkload& w : workloads()) {
    const std::string dataset = dataset_name(w.kind);
    for (const std::string& method : method_labels()) {
      for (const std::string& condition : conditions()) {
        SCOPED_TRACE(dataset + " / " + method + " / " + condition);
        const Measured m = measure(w, method, condition);
        if (regen) {
          std::printf(
              "    {\"%s\", \"%s\", \"%s\", %.17g, %.17g,\n"
              "     %.9g, %.9g, %.9g, %zu},\n",
              dataset.c_str(), method.c_str(), condition.c_str(), m.accuracy,
              m.mean_spikes, m.logit0, m.logit1, m.logit2, m.spikes0);
          continue;
        }
        const Golden& golden = kGolden[g++];
        ASSERT_STREQ(golden.dataset, dataset.c_str());
        ASSERT_STREQ(golden.method, method.c_str());
        ASSERT_STREQ(golden.condition, condition.c_str());
        EXPECT_EQ(m.accuracy, golden.accuracy);
        EXPECT_EQ(m.mean_spikes, golden.mean_spikes);
        EXPECT_EQ(m.spikes0, golden.spikes0);
        const double logits[3] = {m.logit0, m.logit1, m.logit2};
        const double pinned[3] = {golden.logit0, golden.logit1,
                                  golden.logit2};
        for (int i = 0; i < 3; ++i) {
          EXPECT_NEAR(logits[i], pinned[i],
                      1e-5 * std::abs(pinned[i]) + 1e-7)
              << "logit " << i;
        }
      }
    }
  }
  if (regen) {
    std::printf("    // clang-format on\n};\n");
    GTEST_SKIP() << "regeneration run: table printed to stdout";
  }
}

TEST(GoldenZoo, SourceDnnAccuracyIsPinned) {
  // The trained source DNNs themselves (before conversion): if these move,
  // training or the datasets changed, not the simulator.
  const auto& w = workloads();
  ASSERT_EQ(w.size(), 3u);
  const bool regen = std::getenv("TSNN_GOLDEN_REGEN") != nullptr;
  if (regen) {
    std::printf("// dnn accuracies: %.17g %.17g %.17g\n", w[0].dnn_accuracy,
                w[1].dnn_accuracy, w[2].dnn_accuracy);
    GTEST_SKIP() << "regeneration run";
  }
  constexpr double kDnnAccuracy[3] = {0.29333333333333333, 0.10000000000000001, 0.14249999999999999};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(w[i].dnn_accuracy, kDnnAccuracy[i])
        << dataset_name(w[i].kind);
  }
}

TEST(GoldenZoo, CacheHitMatchesFreshConvert) {
  // The TSNZ artifact cache's core promise: a cache hit is bit-identical to
  // converting from scratch, for every model, end to end through simulation.
  if (regen_mode()) {
    GTEST_SKIP() << "regeneration run";
  }
  const auto& ws = workloads();  // warms the cache (and sets TSNN_FAST)
  for (const ZooWorkload& w : ws) {
    SCOPED_TRACE(dataset_name(w.kind));
    const data::DatasetPair data = make_dataset(w.kind);
    ConvertedModel cached = get_or_convert(w.kind, data);
    ASSERT_TRUE(cached.loaded_from_cache);
    ConvertedModel fresh = convert_fresh(w.kind, data);
    EXPECT_EQ(cached.dnn_test_accuracy, fresh.dnn_test_accuracy);

    // The conversion trace must match exactly...
    ASSERT_EQ(cached.conversion.scales.size(), fresh.conversion.scales.size());
    for (std::size_t i = 0; i < fresh.conversion.scales.size(); ++i) {
      EXPECT_EQ(cached.conversion.scales[i].stage_name,
                fresh.conversion.scales[i].stage_name);
      EXPECT_EQ(cached.conversion.scales[i].lambda_in,
                fresh.conversion.scales[i].lambda_in);
      EXPECT_EQ(cached.conversion.scales[i].lambda_out,
                fresh.conversion.scales[i].lambda_out);
    }

    // ...and so must what the models *compute*: same evaluation recipe as
    // the pinned table (rate coding, clean), exact accuracy and spike
    // counts, logits to the table's tolerance.
    const MethodSpec spec = parse_method_label("rate");
    const snn::CodingSchemePtr scheme =
        coding::make_scheme(spec.coding, spec.params);
    const std::vector<Tensor> images(
        data.test.images.begin(),
        data.test.images.begin() + static_cast<std::ptrdiff_t>(kImages));
    const std::vector<std::size_t> labels(
        data.test.labels.begin(),
        data.test.labels.begin() + static_cast<std::ptrdiff_t>(kImages));
    snn::EvalOptions options;
    options.base_seed = kSeed;
    const snn::BatchResult from_cache = snn::evaluate(
        cached.conversion.model, *scheme, images, labels, nullptr, options);
    const snn::BatchResult from_fresh = snn::evaluate(
        fresh.conversion.model, *scheme, images, labels, nullptr, options);
    EXPECT_EQ(from_cache.accuracy, from_fresh.accuracy);
    EXPECT_EQ(from_cache.mean_spikes_per_image,
              from_fresh.mean_spikes_per_image);

    const snn::SimResult rc = snn::simulate(
        snn::SimRequest{&cached.conversion.model, scheme.get()}, images[0]);
    const snn::SimResult rf = snn::simulate(
        snn::SimRequest{&fresh.conversion.model, scheme.get()}, images[0]);
    EXPECT_EQ(rc.total_spikes, rf.total_spikes);
    ASSERT_EQ(rc.logits.numel(), rf.logits.numel());
    for (std::size_t i = 0; i < rf.logits.numel(); ++i) {
      EXPECT_NEAR(rc.logits[i], rf.logits[i],
                  1e-5 * std::abs(rf.logits[i]) + 1e-7)
          << "logit " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The engine prepares each zoo dataset once, at the largest image count a
// suite asks of it, and grows that prefix when a later run() asks for more.
// Either way every row must be the row a fresh engine writes for its spec
// alone -- a spec evaluated on fewer images than it names, or on images a
// longer prefix would not start with, moves these counts.

ScenarioSpec prefix_spec(std::size_t images) {
  return ScenarioSpec::parse(
      "name = prefix" + std::to_string(images) +
      "\ndatasets = s-mnist, s-cifar10\nmethods = rate, ttfs\n"
      "noise = deletion:sweep\nlevels = 0, 0.5\nimages = " +
      std::to_string(images) + "\nseed = 7\n");
}

void expect_rows_match_fresh_engine(const ScenarioResult& got,
                                    const ScenarioSpec& spec) {
  SCOPED_TRACE(spec.name);
  ScenarioEngine fresh;
  const ScenarioResult want = fresh.run_one(spec);
  EXPECT_EQ(got.images_simulated, want.images_simulated);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].dataset, want.rows[i].dataset) << "row " << i;
    EXPECT_EQ(got.rows[i].method, want.rows[i].method) << "row " << i;
    EXPECT_EQ(got.rows[i].level, want.rows[i].level) << "row " << i;
    EXPECT_EQ(got.rows[i].accuracy, want.rows[i].accuracy) << "row " << i;
    EXPECT_EQ(got.rows[i].mean_spikes, want.rows[i].mean_spikes)
        << "row " << i;
    EXPECT_EQ(got.rows[i].mean_decision_timesteps,
              want.rows[i].mean_decision_timesteps)
        << "row " << i;
  }
}

TEST(GoldenZoo, EngineServesEveryImageCountOfOneSuite) {
  workloads();  // warms the fast zoo (and sets TSNN_FAST)
  const std::vector<ScenarioSpec> suite = {prefix_spec(4), prefix_spec(16)};
  ScenarioEngine engine;
  const std::vector<ScenarioResult> results = engine.run(suite);
  ASSERT_EQ(results.size(), 2u);
  expect_rows_match_fresh_engine(results[0], suite[0]);
  expect_rows_match_fresh_engine(results[1], suite[1]);
  EXPECT_EQ(engine.zoo_prep().loads, 2u);  // one per dataset
}

TEST(GoldenZoo, EngineGrowsItsPrefixAcrossRuns) {
  workloads();
  ScenarioEngine engine;
  const ScenarioResult small = engine.run_one(prefix_spec(4));
  const ScenarioResult large = engine.run_one(prefix_spec(16));
  expect_rows_match_fresh_engine(small, prefix_spec(4));
  expect_rows_match_fresh_engine(large, prefix_spec(16));
  EXPECT_EQ(engine.zoo_prep().loads, 2u);  // growing a prefix is no load
}

}  // namespace
}  // namespace tsnn::core
