// End-to-end integration tests: train a small CNN on synthetic data,
// convert, and verify the paper's qualitative claims hold through the whole
// stack (the quantitative versions are the benches).
//
// The trained-and-converted fixture is cached as a TSNZ artifact under
// TSNN_ZOO_DIR (default ./tsnn_zoo -- the build dir under ctest) through the
// same content-keyed dnn::SnnArtifact API the zoo uses: the first run pays
// the training cost and every later run loads in milliseconds, which is
// what lets this suite carry the `fast` CTest label. Training is
// deterministic, so a cache hit is bit-identical to a fresh fixture; any
// corrupt or stale (key-mismatched) artifact falls back to retraining and
// repairs the cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "coding/registry.h"
#include "common/env.h"
#include "common/hash.h"
#include "convert/converter.h"
#include "core/scenario.h"
#include "core/ttas.h"
#include "data/mnist_like.h"
#include "dnn/serialize.h"
#include "dnn/trainer.h"
#include "dnn/vgg.h"
#include "noise/noise.h"
#include "snn/simulator.h"

namespace tsnn {
namespace {

using snn::Coding;

/// Shared fixture: a VGG-mini trained on a small S-MNIST, converted once
/// per cache lifetime (see the file comment).
struct EndToEnd {
  data::DatasetPair data;
  convert::Conversion conversion;
  double dnn_accuracy = 0.0;
  std::vector<Tensor> test_images;
  std::vector<std::size_t> test_labels;

  EndToEnd() {
    data::MnistLikeConfig dcfg;
    dcfg.train_per_class = 70;
    dcfg.test_per_class = 10;
    data = data::make_mnist_like(dcfg);
    test_images.assign(data.test.images.begin(), data.test.images.begin() + 40);
    test_labels.assign(data.test.labels.begin(), data.test.labels.begin() + 40);

    // Every input that shapes the converted fixture, in the zoo's canonical
    // key idiom; change a config below and the key (hence the filename)
    // moves with it.
    const std::string key =
        "tsnz1|integration-fixture|data=70,10|vgg=1,16,10,8,2,48"
        "|train=12,0.05|calib=60";
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    const std::string dir = env::get_string("TSNN_ZOO_DIR", "./tsnn_zoo");
    const std::string path = dir + "/integration-" + hex + ".tsnz";

    if (dnn::is_saved_artifact(path)) {
      try {
        dnn::SnnArtifact artifact = dnn::load_snn_artifact(path);
        if (artifact.key == key) {
          dnn_accuracy = artifact.dnn_accuracy;
          conversion.model = std::move(artifact.model);
          conversion.scales = std::move(artifact.scales);
          return;
        }
      } catch (const IoError&) {
        // Corrupt cache entry: retrain below and repair.
      }
    }

    dnn::VggConfig vcfg;
    vcfg.in_channels = 1;
    vcfg.image_size = 16;
    vcfg.num_blocks = 2;
    vcfg.base_width = 8;
    vcfg.dense_width = 48;
    vcfg.num_classes = 10;
    dnn::Network net = dnn::vgg_mini(vcfg);

    dnn::TrainConfig tcfg;
    tcfg.epochs = 12;
    tcfg.sgd.lr = 0.05;
    dnn::train(net, data.train.images, data.train.labels, tcfg);
    dnn_accuracy =
        dnn::evaluate_accuracy(net, data.test.images, data.test.labels);

    const std::vector<Tensor> calib(data.train.images.begin(),
                                    data.train.images.begin() + 60);
    conversion = convert::convert(net, calib);

    // Cache best-effort: losing the write costs the next run a retrain.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) {
      try {
        dnn::SnnArtifact artifact;
        artifact.key = key;
        artifact.dnn_accuracy = dnn_accuracy;
        artifact.model = conversion.model.clone();
        artifact.scales = conversion.scales;
        dnn::save_snn_artifact(artifact, path);
      } catch (const Error&) {
      }
    }
  }

  /// Rows of a one-scenario run over this fixture (dataset name
  /// "fixture"), through the scenario engine at its defaults: seed 0xBEEF,
  /// one thread.
  std::vector<core::ScenarioRow> scenario(const std::string& methods,
                                          const std::string& noise,
                                          const std::string& levels) const {
    core::ScenarioEngine::Options options;
    options.workload_provider = [this](const std::string&, std::size_t) {
      return core::ScenarioWorkload{&conversion.model, &test_images,
                                    &test_labels};
    };
    core::ScenarioEngine engine(options);
    return engine
        .run_one(core::ScenarioSpec::parse(
            "name = integration\ndatasets = fixture\nmethods = " + methods +
            "\nnoise = " + noise + "\nlevels = " + levels + "\n"))
        .rows;
  }
};

/// Accuracy of `method` at `level` among `rows`.
double accuracy(const std::vector<core::ScenarioRow>& rows,
                const std::string& method, double level) {
  for (const core::ScenarioRow& row : rows) {
    if (row.method == method && row.level == level) {
      return row.accuracy;
    }
  }
  ADD_FAILURE() << "no row for " << method << " at " << level;
  return 0.0;
}

EndToEnd& fixture() {
  static EndToEnd f;
  return f;
}

TEST(Integration, SourceDnnLearns) {
  EXPECT_GT(fixture().dnn_accuracy, 0.8);
}

class CleanConversion : public ::testing::TestWithParam<Coding> {};

TEST_P(CleanConversion, SnnTracksDnnAccuracy) {
  auto& f = fixture();
  const auto scheme = coding::make_scheme(GetParam());
  snn::EvalOptions options;
  options.base_seed = 1;
  const auto r = snn::evaluate(f.conversion.model, *scheme, f.test_images,
                               f.test_labels, nullptr, options);
  EXPECT_GT(r.accuracy, f.dnn_accuracy - 0.15)
      << "clean " << scheme->name() << " lost too much accuracy";
}

INSTANTIATE_TEST_SUITE_P(AllCodings, CleanConversion,
                         ::testing::Values(Coding::kRate, Coding::kPhase,
                                           Coding::kBurst, Coding::kTtfs),
                         [](const ::testing::TestParamInfo<Coding>& info) {
                           return snn::coding_name(info.param);
                         });

TEST(Integration, TtasCleanAccuracyMatchesTtfs) {
  auto& f = fixture();
  snn::EvalOptions options;
  options.base_seed = 1;
  const auto ttfs = coding::make_scheme(Coding::kTtfs);
  const auto r_ttfs = snn::evaluate(f.conversion.model, *ttfs, f.test_images,
                                    f.test_labels, nullptr, options);
  const auto ttas = core::make_ttas(5);
  const auto r_ttas = snn::evaluate(f.conversion.model, *ttas, f.test_images,
                                    f.test_labels, nullptr, options);
  EXPECT_NEAR(r_ttas.accuracy, r_ttfs.accuracy, 0.1);
  // TTAS uses ~5x the spikes of TTFS, still far below rate coding.
  EXPECT_GT(r_ttas.mean_spikes_per_image, 3.0 * r_ttfs.mean_spikes_per_image);
}

TEST(Integration, DeletionDegradesAllCodings) {
  const auto rows =
      fixture().scenario("rate, ttfs", "deletion:sweep", "0, 0.8");
  EXPECT_LT(accuracy(rows, "rate", 0.8), accuracy(rows, "rate", 0.0) - 0.2);
  EXPECT_LT(accuracy(rows, "ttfs", 0.8), accuracy(rows, "ttfs", 0.0));
}

TEST(Integration, TtfsMoreDeletionRobustThanCountCodings) {
  // Paper SS III: the all-or-none activation of TTFS (plus dropout-trained
  // weights) makes it more deletion-robust than the count-based codings
  // whose activations shrink uniformly. (The full "most robust of all"
  // claim is depth-dependent and reproduced by the Fig. 2 scenario on the
  // deeper S-CIFAR10 model.)
  const auto rows =
      fixture().scenario("rate, burst, ttfs", "deletion:sweep", "0.5");
  EXPECT_GT(accuracy(rows, "ttfs", 0.5), accuracy(rows, "rate", 0.5));
  EXPECT_GT(accuracy(rows, "ttfs", 0.5), accuracy(rows, "burst", 0.5));
}

TEST(Integration, WeightScalingImprovesDeletionRobustness) {
  const auto rows =
      fixture().scenario("rate, rate+WS", "deletion:sweep", "0.5");
  EXPECT_GT(accuracy(rows, "rate+WS", 0.5), accuracy(rows, "rate", 0.5) + 0.2);
}

TEST(Integration, TtasWithWsBeatsTtfsWithWsUnderDeletion) {
  // The paper's headline deletion result (Fig. 4 / Table I).
  const auto rows =
      fixture().scenario("ttfs+WS, ttas(5)+WS", "deletion:sweep", "0.5");
  EXPECT_GT(accuracy(rows, "ttas(5)+WS", 0.5), accuracy(rows, "ttfs+WS", 0.5));
}

TEST(Integration, RateIsFlatUnderJitterPhaseIsNot) {
  // Paper Fig. 3: rate coding carries no timing information; phase carries
  // almost only timing information.
  const auto rows = fixture().scenario("rate, phase", "jitter:sweep", "0, 2");
  EXPECT_GT(accuracy(rows, "rate", 2.0), accuracy(rows, "rate", 0.0) - 0.05);
  EXPECT_LT(accuracy(rows, "phase", 2.0), accuracy(rows, "phase", 0.0) - 0.15);
}

TEST(Integration, TtasMoreJitterRobustThanTtfs) {
  // Paper Fig. 6: averaging over the burst cancels spike-time jitter.
  const auto rows = fixture().scenario("ttfs, ttas(10)", "jitter:sweep", "3");
  EXPECT_GT(accuracy(rows, "ttas(10)", 3.0), accuracy(rows, "ttfs", 3.0));
}

TEST(Integration, SpikeCountOrderingMatchesPaper) {
  // Table I ordering: TTFS << TTAS << rate/burst/phase spike budgets.
  auto& f = fixture();
  const auto count = [&](const snn::CodingScheme& s) {
    snn::EvalOptions options;
    options.base_seed = 1;
    return snn::evaluate(f.conversion.model, s, f.test_images, f.test_labels,
                         nullptr, options)
        .mean_spikes_per_image;
  };
  const double rate = count(*coding::make_scheme(Coding::kRate));
  const double ttfs = count(*coding::make_scheme(Coding::kTtfs));
  const double ttas = count(*core::make_ttas(5));
  EXPECT_LT(ttfs, rate / 4);
  EXPECT_GT(ttas, ttfs);
  EXPECT_LT(ttas, rate);
}

TEST(Integration, SimulatorReportsPerLayerSpikes) {
  auto& f = fixture();
  const auto scheme = coding::make_scheme(Coding::kRate);
  const snn::SimResult r = snn::simulate(
      snn::SimRequest{&f.conversion.model, scheme.get()}, f.test_images[0]);
  // Encoder + one train per hidden stage (all but the readout stage).
  EXPECT_EQ(r.layer_spikes.size(), f.conversion.model.num_stages());
  std::size_t sum = 0;
  for (const std::size_t n : r.layer_spikes) {
    sum += n;
  }
  EXPECT_EQ(sum, r.total_spikes);
  EXPECT_EQ(r.logits.numel(), 10u);
}

}  // namespace
}  // namespace tsnn
