// Model zoo: train-once, cache, and reload -- source DNNs *and* converted
// SNN artifacts.
//
// Every figure/table of the paper needs the same three trained VGG-mini
// classifiers (S-MNIST, S-CIFAR10, S-CIFAR20). The zoo trains each on first
// use, persists weights under TSNN_ZOO_DIR (default "./tsnn_zoo"), and
// reloads afterwards so the full bench suite pays the training cost once.
// Datasets are not cached: generation is deterministic, and make_dataset()
// renders only the samples a caller keeps (an artifact hit needs no train
// image at all -- see load_converted()).
//
// Two cache layers live side by side in the zoo directory:
//   <name>[-fast].tsnn          the trained source DNN (dnn::save_network)
//   <name>[-fast]-<hash>.tsnz   the *converted* artifact (model + scaling
//                               trace + coding-relevant config), content-
//                               addressed by zoo_artifact_key() and loaded
//                               via mmap with zero-copy weight adoption
// get_or_convert() is the load-or-convert entry point benches, scenario
// suites, and tests share: an artifact hit skips training, conversion, and
// DNN evaluation entirely; any miss (absent, corrupt, stale key) falls back
// to the DNN cache / fresh training and repairs the artifact on the way
// out. load_converted() and convert_and_cache() are its hit and miss
// halves, for callers (load_zoo_workload) that render their dataset only
// once they know whether a miss needs it. Cache-hit results are
// bit-identical to fresh conversion -- pinned by tests/test_golden_zoo.cpp.
//
// Environment knobs:
//   TSNN_ZOO_DIR  cache directory (created if missing)
//   TSNN_FAST     "1" trains smaller/shorter models (CI-scale smoke runs)
//   TSNN_NO_MMAP  "1" forces the artifact loader's read()+copy fallback
#pragma once

#include <optional>
#include <string>

#include "convert/converter.h"
#include "data/dataset.h"
#include "dnn/network.h"

namespace tsnn::core {

/// The paper's three evaluation datasets (synthetic stand-ins; DESIGN.md).
enum class DatasetKind { kMnistLike, kCifar10Like, kCifar20Like };

/// Stable name used in logs, file names and bench output
/// ("s-mnist", "s-cifar10", "s-cifar20").
std::string dataset_name(DatasetKind kind);

/// Inverse of dataset_name: true and sets *kind if `name` names a zoo
/// dataset; false otherwise (scenario specs may also name datasets that a
/// custom workload provider resolves -- see core/scenario.h).
bool dataset_kind_from_name(const std::string& name, DatasetKind* kind);

/// A trained source model with its dataset.
struct ModelBundle {
  DatasetKind kind = DatasetKind::kMnistLike;
  data::DatasetPair data;
  dnn::Network net;
  double dnn_test_accuracy = 0.0;  ///< source DNN accuracy on the test split
  bool loaded_from_cache = false;

  ModelBundle() : net(Shape{1}) {}
};

/// Returns the trained bundle for `kind`, training and caching on first use.
ModelBundle get_or_train(DatasetKind kind);

/// Regenerates only the dataset for `kind` (deterministic), rendering the
/// samples `keep` names: every one by default, or a prefix of each split
/// that equals the same prefix of the full split image for image.
data::DatasetPair make_dataset(DatasetKind kind, data::Keep keep = {});

/// Cache path that get_or_train uses for `kind`.
std::string zoo_model_path(DatasetKind kind);

/// A converted zoo model: the conversion output plus its provenance.
struct ConvertedModel {
  DatasetKind kind = DatasetKind::kMnistLike;
  double dnn_test_accuracy = 0.0;  ///< source DNN accuracy on the test split
  convert::Conversion conversion;
  bool loaded_from_cache = false;  ///< true = served from a TSNZ artifact
};

/// Canonical content key of the converted artifact for `kind`: every
/// config field that influences the converted weights (architecture,
/// training hyperparameters and seeds, dataset scale, calibration recipe,
/// converter config, TSNN_FAST) rendered as one stable string. Any change
/// to these inputs changes the key, and with it the artifact filename.
std::string zoo_artifact_key(DatasetKind kind);

/// Artifact cache path: zoo dir / <name>[-fast]-<fnv1a64(key) hex>.tsnz.
std::string zoo_artifact_path(DatasetKind kind);

/// Fresh conversion, deliberately bypassing (and not writing) the TSNZ
/// artifact cache: trains or loads the source DNN, then converts with the
/// standard 100-image calibration slice of `data`. The golden cache-
/// equivalence tests pin get_or_convert() == convert_fresh() bit-for-bit.
ConvertedModel convert_fresh(DatasetKind kind, const data::DatasetPair& data);

/// The converted model for `kind` from the TSNZ cache when a valid entry
/// with the current key exists (mmap load, zero-copy weight adoption, no
/// training, no DNN evaluation and no dataset); nullopt on any miss
/// (absent, or -- logged -- unreadable or keyed for other inputs).
std::optional<ConvertedModel> load_converted(DatasetKind kind);

/// convert_fresh() plus a best-effort write of the artifact, which
/// repairs or populates the cache: what a miss of load_converted() needs.
ConvertedModel convert_and_cache(DatasetKind kind,
                                 const data::DatasetPair& data);

/// Load-or-convert: load_converted(kind), else convert_and_cache(). `data`
/// must be the full make_dataset(kind); only a miss reads it, for
/// training, calibration and the DNN's test accuracy, so a caller that can
/// tell a hit in advance (load_zoo_workload) renders no train image on one.
ConvertedModel get_or_convert(DatasetKind kind, const data::DatasetPair& data);

}  // namespace tsnn::core
