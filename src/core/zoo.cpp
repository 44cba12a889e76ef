#include "core/zoo.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/env.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "data/cifar_like.h"
#include "data/mnist_like.h"
#include "dnn/serialize.h"
#include "dnn/trainer.h"
#include "dnn/vgg.h"

namespace tsnn::core {

namespace {

bool fast_mode() { return env::get_bool("TSNN_FAST", false); }

std::string zoo_dir() {
  return env::get_string("TSNN_ZOO_DIR", "./tsnn_zoo");
}

dnn::VggConfig vgg_config_for(DatasetKind kind) {
  dnn::VggConfig cfg;
  switch (kind) {
    case DatasetKind::kMnistLike:
      cfg.in_channels = 1;
      cfg.num_classes = 10;
      cfg.num_blocks = 2;
      cfg.base_width = 12;
      cfg.dense_width = 64;
      cfg.init_seed = 101;
      break;
    case DatasetKind::kCifar10Like:
      cfg.in_channels = 3;
      cfg.num_classes = 10;
      cfg.num_blocks = 3;
      cfg.base_width = 16;
      cfg.dense_width = 128;
      // Heavier dropout mirrors VGG16 training practice; it is also the
      // mechanism the paper credits for TTFS/TTAS deletion tolerance.
      cfg.conv_dropout = 0.25;
      cfg.dense_dropout = 0.5;
      cfg.init_seed = 202;
      break;
    case DatasetKind::kCifar20Like:
      cfg.in_channels = 3;
      cfg.num_classes = 20;
      cfg.num_blocks = 3;
      cfg.base_width = 16;
      cfg.dense_width = 128;
      cfg.conv_dropout = 0.25;
      cfg.dense_dropout = 0.5;
      cfg.init_seed = 303;
      break;
  }
  if (fast_mode()) {
    cfg.num_blocks = 2;
    cfg.base_width = 8;
    cfg.dense_width = 48;
  }
  return cfg;
}

dnn::TrainConfig train_config_for(DatasetKind kind) {
  dnn::TrainConfig cfg;
  cfg.batch_size = 32;
  cfg.sgd.lr = 0.04;
  cfg.sgd.momentum = 0.9;
  cfg.sgd.weight_decay = 5e-4;
  cfg.lr_decay_gamma = 0.5;
  cfg.lr_decay_epochs = 5;
  cfg.epochs = kind == DatasetKind::kMnistLike ? 10 : 14;
  if (fast_mode()) {
    cfg.epochs = 3;
  }
  cfg.verbose = log::level() <= log::Level::kInfo;
  return cfg;
}

}  // namespace

std::string dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kMnistLike: return "s-mnist";
    case DatasetKind::kCifar10Like: return "s-cifar10";
    case DatasetKind::kCifar20Like: return "s-cifar20";
  }
  return "unknown";
}

bool dataset_kind_from_name(const std::string& name, DatasetKind* kind) {
  for (const DatasetKind k : {DatasetKind::kMnistLike, DatasetKind::kCifar10Like,
                              DatasetKind::kCifar20Like}) {
    if (dataset_name(k) == name) {
      *kind = k;
      return true;
    }
  }
  return false;
}

data::DatasetPair make_dataset(DatasetKind kind, data::Keep keep) {
  const std::size_t train_scale = fast_mode() ? 3 : 1;
  switch (kind) {
    case DatasetKind::kMnistLike: {
      data::MnistLikeConfig cfg;
      cfg.train_per_class = 150 / train_scale;
      cfg.test_per_class = 30;
      return data::make_mnist_like(cfg, keep);
    }
    case DatasetKind::kCifar10Like: {
      data::CifarLikeConfig cfg;
      cfg.num_classes = 10;
      cfg.train_per_class = 150 / train_scale;
      cfg.test_per_class = 30;
      cfg.seed = 4321;
      return data::make_cifar_like(cfg, keep);
    }
    case DatasetKind::kCifar20Like: {
      data::CifarLikeConfig cfg;
      cfg.num_classes = 20;
      cfg.train_per_class = 100 / train_scale;
      cfg.test_per_class = 20;
      cfg.seed = 9876;
      return data::make_cifar_like(cfg, keep);
    }
  }
  throw InvalidArgument("unknown dataset kind");
}

std::string zoo_model_path(DatasetKind kind) {
  const std::string suffix = fast_mode() ? "-fast" : "";
  return zoo_dir() + "/" + dataset_name(kind) + suffix + ".tsnn";
}

namespace {

/// Shared train-or-load step over a caller-provided dataset (get_or_train
/// regenerates the dataset itself; get_or_convert already has one in hand).
struct TrainedNet {
  dnn::Network net{Shape{1}};
  double test_accuracy = 0.0;
  bool loaded_from_cache = false;
};

TrainedNet train_or_load_net(DatasetKind kind, const data::DatasetPair& data) {
  TrainedNet out;
  const std::string path = zoo_model_path(kind);
  if (dnn::is_saved_network(path)) {
    out.net = dnn::load_network(path);
    out.loaded_from_cache = true;
    out.test_accuracy =
        dnn::evaluate_accuracy(out.net, data.test.images, data.test.labels);
    TSNN_LOG(kInfo) << "zoo: loaded " << dataset_name(kind) << " (test acc "
                    << out.test_accuracy << ")";
    return out;
  }

  TSNN_LOG(kInfo) << "zoo: training " << dataset_name(kind) << " from scratch";
  Stopwatch watch;
  out.net = dnn::vgg_mini(vgg_config_for(kind));
  dnn::train(out.net, data.train.images, data.train.labels,
             train_config_for(kind));
  out.test_accuracy =
      dnn::evaluate_accuracy(out.net, data.test.images, data.test.labels);
  TSNN_LOG(kInfo) << "zoo: trained " << dataset_name(kind) << " in "
                  << watch.elapsed() << "s, test acc " << out.test_accuracy;

  std::error_code ec;
  std::filesystem::create_directories(zoo_dir(), ec);
  if (!ec) {
    dnn::save_network(out.net, path);
  } else {
    TSNN_LOG(kWarn) << "zoo: cannot create cache dir " << zoo_dir();
  }
  return out;
}

}  // namespace

ModelBundle get_or_train(DatasetKind kind) {
  ModelBundle bundle;
  bundle.kind = kind;
  bundle.data = make_dataset(kind);
  TrainedNet trained = train_or_load_net(kind, bundle.data);
  bundle.net = std::move(trained.net);
  bundle.dnn_test_accuracy = trained.test_accuracy;
  bundle.loaded_from_cache = trained.loaded_from_cache;
  return bundle;
}

std::string zoo_artifact_key(DatasetKind kind) {
  // Canonical, human-readable rendering of every input that shapes the
  // converted weights. The leading "tsnz1" is the key schema version: bump
  // it when the *meaning* of a field changes without its value changing.
  // TrainConfig::verbose is deliberately excluded (no effect on weights);
  // dataset generation parameters are code constants covered by the CI
  // cache key over src/**, not by this string.
  const dnn::VggConfig v = vgg_config_for(kind);
  const dnn::TrainConfig t = train_config_for(kind);
  const convert::ConvertConfig c;
  std::ostringstream key;
  key << "tsnz1|" << dataset_name(kind) << "|fast=" << (fast_mode() ? 1 : 0)
      << "|vgg=" << v.in_channels << ',' << v.image_size << ',' << v.num_classes
      << ',' << v.base_width << ',' << v.num_blocks << ',' << v.dense_width
      << ',' << v.conv_dropout << ',' << v.dense_dropout << ',' << v.init_seed
      << "|train=" << t.epochs << ',' << t.batch_size << ',' << t.sgd.lr << ','
      << t.sgd.momentum << ',' << t.sgd.weight_decay << ',' << t.lr_decay_gamma
      << ',' << t.lr_decay_epochs << ',' << t.shuffle_seed
      << "|calib=100|convert=" << c.percentile << ',' << c.min_scale;
  return key.str();
}

std::string zoo_artifact_path(DatasetKind kind) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(zoo_artifact_key(kind))));
  const std::string suffix = fast_mode() ? "-fast" : "";
  return zoo_dir() + "/" + dataset_name(kind) + suffix + "-" + hex + ".tsnz";
}

ConvertedModel convert_fresh(DatasetKind kind, const data::DatasetPair& data) {
  TrainedNet trained = train_or_load_net(kind, data);
  ConvertedModel out;
  out.kind = kind;
  out.dnn_test_accuracy = trained.test_accuracy;
  // The standard calibration slice -- identical for benches and the
  // scenario engine, so their results stay comparable bit-for-bit (and
  // identical to what a cached artifact was converted with).
  const std::size_t calib_n = std::min<std::size_t>(100, data.train.size());
  const std::vector<Tensor> calib(
      data.train.images.begin(),
      data.train.images.begin() + static_cast<std::ptrdiff_t>(calib_n));
  out.conversion = convert::convert(trained.net, calib);
  return out;
}

std::optional<ConvertedModel> load_converted(DatasetKind kind) {
  const std::string path = zoo_artifact_path(kind);
  if (!dnn::is_saved_artifact(path)) {
    return std::nullopt;
  }
  try {
    dnn::SnnArtifact artifact = dnn::load_snn_artifact(path);
    if (artifact.key == zoo_artifact_key(kind)) {
      ConvertedModel out;
      out.kind = kind;
      out.dnn_test_accuracy = artifact.dnn_accuracy;
      out.conversion.model = std::move(artifact.model);
      out.conversion.scales = std::move(artifact.scales);
      out.loaded_from_cache = true;
      TSNN_LOG(kInfo) << "zoo: loaded converted " << dataset_name(kind)
                      << " artifact (test acc " << out.dnn_test_accuracy
                      << ")";
      return out;
    }
    // Filename hash matched but the stored key differs (hash collision or
    // a hand-renamed file): a miss, which convert_and_cache repairs.
    TSNN_LOG(kWarn) << "zoo: artifact key mismatch for " << path
                    << "; reconverting";
  } catch (const Error& e) {
    TSNN_LOG(kWarn) << "zoo: discarding unreadable artifact " << path << ": "
                    << e.what();
  }
  return std::nullopt;
}

ConvertedModel convert_and_cache(DatasetKind kind,
                                 const data::DatasetPair& data) {
  ConvertedModel out = convert_fresh(kind, data);

  // Repair/populate the cache best-effort: losing the write costs the next
  // process a warm start, nothing else.
  const std::string path = zoo_artifact_path(kind);
  std::error_code ec;
  std::filesystem::create_directories(zoo_dir(), ec);
  if (ec) {
    TSNN_LOG(kWarn) << "zoo: cannot create cache dir " << zoo_dir();
    return out;
  }
  try {
    dnn::SnnArtifact artifact;
    artifact.key = zoo_artifact_key(kind);
    artifact.dnn_accuracy = out.dnn_test_accuracy;
    artifact.model = out.conversion.model.clone();
    artifact.scales = out.conversion.scales;
    dnn::save_snn_artifact(artifact, path);
  } catch (const Error& e) {
    TSNN_LOG(kWarn) << "zoo: cannot write artifact " << path << ": "
                    << e.what();
  }
  return out;
}

ConvertedModel get_or_convert(DatasetKind kind, const data::DatasetPair& data) {
  if (std::optional<ConvertedModel> hit = load_converted(kind)) {
    return std::move(*hit);
  }
  return convert_and_cache(kind, data);
}

}  // namespace tsnn::core
