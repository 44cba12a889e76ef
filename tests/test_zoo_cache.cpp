// TSNZ artifact cache torture tests: truncation at every prefix, bit flips
// at every byte, and the zoo's fall-back-and-repair behavior on corrupt or
// stale cache entries. The loader contract under test: every corruption
// mode surfaces as tsnn::IoError -- never a crash, never UB (the suite runs
// under ASan/UBSan in CI) -- and core::get_or_convert treats any unreadable
// artifact as a miss, reconverts, and leaves a repaired cache behind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "core/zoo.h"
#include "dnn/serialize.h"
#include "snn/snn_model.h"
#include "snn/topology.h"

// A counting shim over the global allocator, read by
// ZooPrepTest.ArtifactHitRendersNoTrainImage: every rendered image
// allocates its pixels, so the count bounds how many images a call drew.
namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsnn {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Tensor filled_tensor(Shape shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return t;
}

/// Small artifact covering every stage kind (incl. a 1x1 conv), built
/// directly -- no training -- so the torture loops stay fast.
dnn::SnnArtifact make_tiny_artifact() {
  dnn::SnnArtifact a;
  a.key = "tsnz1|torture|fixture";
  a.dnn_accuracy = 0.5;
  a.model = snn::SnnModel(Shape{1, 4, 4});
  a.model.add_stage("conv", std::make_unique<snn::ConvTopology>(
                                filled_tensor(Shape{2, 1, 3, 3}, 7), 4, 4, 1, 1));
  a.model.add_stage("pool",
                    std::make_unique<snn::PoolTopology>(2, 4, 4, 2));
  a.model.add_stage("conv1x1",
                    std::make_unique<snn::ConvTopology>(
                        filled_tensor(Shape{2, 2, 1, 1}, 8), 2, 2, 1, 0));
  a.model.add_stage("fc", std::make_unique<snn::DenseTopology>(
                              filled_tensor(Shape{3, 8}, 9)));
  a.scales = {{"conv", 1.0, 2.0}, {"pool", 2.0, 2.0}, {"conv1x1", 2.0, 1.5},
              {"fc", 1.5, 1.0}};
  return a;
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class ZooCacheTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("tsnz_torture.tsnz");
    dnn::save_snn_artifact(make_tiny_artifact(), path_);
    bytes_ = read_bytes(path_);
    ASSERT_GT(bytes_.size(), 32u);  // magic + version + size + checksum + key
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<unsigned char> bytes_;
};

TEST_F(ZooCacheTortureTest, IntactFileLoads) {
  EXPECT_NO_THROW(dnn::load_snn_artifact(path_));
}

TEST_F(ZooCacheTortureTest, TruncationAtEveryPrefixThrowsIoError) {
  // Every proper prefix -- which by construction includes every section
  // boundary (header fields, key, scale table, stage table, each aligned
  // payload block) -- must be rejected cleanly.
  const std::string cut = temp_path("tsnz_torture_cut.tsnz");
  for (std::size_t len = 0; len < bytes_.size(); ++len) {
    write_bytes(cut, std::vector<unsigned char>(bytes_.begin(),
                                                bytes_.begin() +
                                                    static_cast<std::ptrdiff_t>(
                                                        len)));
    EXPECT_THROW(dnn::load_snn_artifact(cut), IoError) << "prefix " << len;
  }
  std::remove(cut.c_str());
}

TEST_F(ZooCacheTortureTest, FlippingAnyByteThrowsIoError) {
  // The whole-file checksum (and for the header, the field validations in
  // front of it) must catch a flip at any offset -- header, body, payload.
  const std::string flip = temp_path("tsnz_torture_flip.tsnz");
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::vector<unsigned char> mutated = bytes_;
    mutated[i] ^= 0xFF;
    write_bytes(flip, mutated);
    EXPECT_THROW(dnn::load_snn_artifact(flip), IoError) << "byte " << i;
  }
  std::remove(flip.c_str());
}

TEST_F(ZooCacheTortureTest, TrailingGarbageThrowsIoError) {
  std::vector<unsigned char> grown = bytes_;
  grown.insert(grown.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  const std::string big = temp_path("tsnz_torture_grown.tsnz");
  write_bytes(big, grown);
  EXPECT_THROW(dnn::load_snn_artifact(big), IoError);
  std::remove(big.c_str());
}

TEST_F(ZooCacheTortureTest, NoMmapFallbackRejectsCorruptionToo) {
  dnn::ArtifactLoadOptions no_mmap;
  no_mmap.use_mmap = false;
  std::vector<unsigned char> mutated = bytes_;
  mutated[bytes_.size() / 2] ^= 0xFF;
  const std::string flip = temp_path("tsnz_torture_nommap.tsnz");
  write_bytes(flip, mutated);
  EXPECT_THROW(dnn::load_snn_artifact(flip, no_mmap), IoError);
  write_bytes(flip, std::vector<unsigned char>(bytes_.begin(),
                                               bytes_.begin() + 40));
  EXPECT_THROW(dnn::load_snn_artifact(flip, no_mmap), IoError);
  std::remove(flip.c_str());
}

// -------------------------------------------------- zoo fall-back path -----

class ZooRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "tsnn_zoo_cache_test")
               .string();
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

TEST_F(ZooRepairTest, CorruptArtifactFallsBackAndRepairsCache) {
  const core::DatasetKind kind = core::DatasetKind::kMnistLike;
  const data::DatasetPair data = core::make_dataset(kind);

  // Populate the cache once (trains the fast-mode model, converts, writes
  // the artifact), then corrupt the artifact in place.
  const core::ConvertedModel first = core::get_or_convert(kind, data);
  EXPECT_FALSE(first.loaded_from_cache);
  const std::string path = core::zoo_artifact_path(kind);
  ASSERT_TRUE(dnn::is_saved_artifact(path));
  std::vector<unsigned char> bytes = read_bytes(path);
  bytes[bytes.size() - 1] ^= 0xFF;
  write_bytes(path, bytes);
  EXPECT_THROW(dnn::load_snn_artifact(path), IoError);

  // The zoo must treat the corrupt entry as a miss (the trained DNN cache
  // is intact, so this reconverts without retraining), serve a fresh
  // conversion, and leave a repaired artifact behind.
  const core::ConvertedModel second = core::get_or_convert(kind, data);
  EXPECT_FALSE(second.loaded_from_cache);
  EXPECT_DOUBLE_EQ(second.dnn_test_accuracy, first.dnn_test_accuracy);
  EXPECT_NO_THROW(dnn::load_snn_artifact(path));

  // And the repaired cache serves hits again.
  const core::ConvertedModel third = core::get_or_convert(kind, data);
  EXPECT_TRUE(third.loaded_from_cache);
  EXPECT_DOUBLE_EQ(third.dnn_test_accuracy, first.dnn_test_accuracy);
}

TEST_F(ZooRepairTest, StaleKeyFallsBackAndRepairs) {
  const core::DatasetKind kind = core::DatasetKind::kMnistLike;
  const data::DatasetPair data = core::make_dataset(kind);
  const std::string path = core::zoo_artifact_path(kind);

  // Plant a structurally valid artifact whose key does not match the
  // current config (a renamed file or a hash collision): the zoo must
  // ignore it and repair with the real conversion.
  std::filesystem::create_directories(dir_);
  dnn::SnnArtifact stale = make_tiny_artifact();
  stale.key = "tsnz1|stale|other-config";
  dnn::save_snn_artifact(stale, path);

  const core::ConvertedModel out = core::get_or_convert(kind, data);
  EXPECT_FALSE(out.loaded_from_cache);
  const dnn::SnnArtifact repaired = dnn::load_snn_artifact(path);
  EXPECT_EQ(repaired.key, core::zoo_artifact_key(kind));
  EXPECT_EQ(repaired.model.num_stages(), out.conversion.model.num_stages());
}

// An artifact hit needs no train image, so load_zoo_workload renders none:
// it allocates fewer times than the train split holds images, where
// rendering the split would take at least one allocation per image.
using ZooPrepTest = ZooRepairTest;

TEST_F(ZooPrepTest, ArtifactHitRendersNoTrainImage) {
  const core::DatasetKind kind = core::DatasetKind::kMnistLike;
  const std::size_t train_images = core::make_dataset(kind).train.size();

  // A structurally valid artifact under the current key: a hit that needs
  // no training.
  std::filesystem::create_directories(dir_);
  dnn::SnnArtifact planted = make_tiny_artifact();
  planted.key = core::zoo_artifact_key(kind);
  dnn::save_snn_artifact(planted, core::zoo_artifact_path(kind));

  const std::size_t before = g_allocations.load();
  const core::ZooWorkload w = core::load_zoo_workload(kind, 8);
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(w.from_artifact_cache);
  EXPECT_EQ(w.test_images.size(), 8u);
  EXPECT_LT(allocations, train_images);
}

}  // namespace
}  // namespace tsnn
