// Tests for the model zoo (fast mode: tiny models, short training).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/zoo.h"

namespace tsnn::core {
namespace {

class ZooTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "tsnn_zoo_test").string();
    std::filesystem::remove_all(dir_);
    setenv("TSNN_ZOO_DIR", dir_.c_str(), 1);
    setenv("TSNN_FAST", "1", 1);
  }
  void TearDown() override {
    unsetenv("TSNN_ZOO_DIR");
    unsetenv("TSNN_FAST");
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(ZooTest, DatasetNamesAreStable) {
  EXPECT_EQ(dataset_name(DatasetKind::kMnistLike), "s-mnist");
  EXPECT_EQ(dataset_name(DatasetKind::kCifar10Like), "s-cifar10");
  EXPECT_EQ(dataset_name(DatasetKind::kCifar20Like), "s-cifar20");
}

TEST_F(ZooTest, MakeDatasetIsDeterministicAndValid) {
  const data::DatasetPair a = make_dataset(DatasetKind::kCifar10Like);
  const data::DatasetPair b = make_dataset(DatasetKind::kCifar10Like);
  a.train.check_valid();
  a.test.check_valid();
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train.images[0], b.train.images[0]);
  EXPECT_EQ(a.train.num_classes, 10u);
  EXPECT_EQ(make_dataset(DatasetKind::kCifar20Like).train.num_classes, 20u);
}

TEST_F(ZooTest, TrainsCachesAndReloads) {
  // First call trains and writes the cache.
  ModelBundle first = get_or_train(DatasetKind::kMnistLike);
  EXPECT_FALSE(first.loaded_from_cache);
  EXPECT_GT(first.dnn_test_accuracy, 0.2);  // fast mode: weak but learning
  EXPECT_TRUE(std::filesystem::exists(zoo_model_path(DatasetKind::kMnistLike)));

  // Second call reloads with identical accuracy.
  ModelBundle second = get_or_train(DatasetKind::kMnistLike);
  EXPECT_TRUE(second.loaded_from_cache);
  EXPECT_DOUBLE_EQ(second.dnn_test_accuracy, first.dnn_test_accuracy);
}

TEST_F(ZooTest, FastModePathIsSeparate) {
  const std::string fast_path = zoo_model_path(DatasetKind::kMnistLike);
  EXPECT_NE(fast_path.find("-fast"), std::string::npos);
  unsetenv("TSNN_FAST");
  const std::string full_path = zoo_model_path(DatasetKind::kMnistLike);
  EXPECT_EQ(full_path.find("-fast"), std::string::npos);
  setenv("TSNN_FAST", "1", 1);
}

// What an artifact hit renders -- no train image, a test prefix -- must be
// exactly the prefix of the full dataset that a miss generates, for every
// kind at both scales.
TEST_F(ZooTest, KeptTestPrefixMatchesFullDataset) {
  for (const bool fast : {true, false}) {
    if (fast) {
      setenv("TSNN_FAST", "1", 1);
    } else {
      unsetenv("TSNN_FAST");
    }
    for (const DatasetKind kind :
         {DatasetKind::kMnistLike, DatasetKind::kCifar10Like,
          DatasetKind::kCifar20Like}) {
      const data::DatasetPair full = make_dataset(kind);
      const std::size_t split = full.test.size();
      for (const std::size_t keep :
           {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{48},
            split, split + 1}) {
        SCOPED_TRACE(dataset_name(kind) + (fast ? " fast" : " full") +
                     " keep " + std::to_string(keep));
        const data::DatasetPair got =
            make_dataset(kind, {.train = 0, .test = keep});
        EXPECT_TRUE(got.train.empty());
        EXPECT_EQ(got.train.num_classes, full.train.num_classes);
        EXPECT_EQ(got.train.image_shape, full.train.image_shape);
        ASSERT_EQ(got.test.size(), std::min(keep, split));
        ASSERT_EQ(got.test.labels.size(), got.test.size());
        EXPECT_EQ(got.test.image_shape, full.test.image_shape);
        for (std::size_t i = 0; i < got.test.size(); ++i) {
          EXPECT_EQ(got.test.labels[i], full.test.labels[i]) << "label " << i;
          ASSERT_EQ(got.test.images[i].shape(), full.test.images[i].shape());
          EXPECT_EQ(std::memcmp(got.test.images[i].data(),
                                full.test.images[i].data(),
                                full.test.images[i].numel() * sizeof(float)),
                    0)
              << "image " << i;
        }
      }
    }
  }
  setenv("TSNN_FAST", "1", 1);
}

}  // namespace
}  // namespace tsnn::core
