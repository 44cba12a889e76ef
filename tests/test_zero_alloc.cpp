// Steady-state allocation test for the event-buffer simulation core.
//
// Replaces the global allocator with a counting shim, warms a SimWorkspace
// by running a batch of noisy simulations, then repeats the *identical*
// batch and asserts the repeat performed zero heap allocations -- the
// tentpole guarantee: once warm, simulating an image allocates nothing
// (EventBuffers, sort scratch, batches, potentials, and the SimResult all
// recycle their storage).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "coding/registry.h"
#include "core/ttas.h"
#include "noise/noise.h"
#include "snn/simulator.h"
#include "snn/topology.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

// aligned_vector (common/aligned.h) allocates through the aligned forms.
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

namespace tsnn::snn {
namespace {

SnnModel test_model() {
  SnnModel model(Shape{1, 8, 8});
  Tensor conv_w{Shape{4, 1, 3, 3}};
  for (std::size_t i = 0; i < conv_w.numel(); ++i) {
    conv_w[i] = 0.05f * static_cast<float>((i * 17) % 13) - 0.25f;
  }
  model.add_stage("conv",
                  std::make_unique<ConvTopology>(conv_w, 8, 8, /*stride=*/1,
                                                 /*pad=*/1));
  model.add_stage("pool", std::make_unique<PoolTopology>(4, 8, 8, 2));
  Tensor dense_w{Shape{5, 64}};
  for (std::size_t i = 0; i < dense_w.numel(); ++i) {
    dense_w[i] = 0.03f * static_cast<float>((i * 7) % 17) - 0.2f;
  }
  model.add_stage("readout", std::make_unique<DenseTopology>(dense_w));
  return model;
}

Tensor test_image() {
  Tensor img{Shape{1, 8, 8}};
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>((i * 31) % 64) / 64.0f;
  }
  return img;
}

class ZeroAllocSweep : public ::testing::TestWithParam<Coding> {};

TEST_P(ZeroAllocSweep, SteadyStateSimulationAllocatesNothing) {
  const SnnModel model = test_model();
  const Tensor img = test_image();
  const auto scheme = GetParam() == Coding::kTtas
                          ? core::make_ttas(5)
                          : coding::make_scheme(GetParam());
  const auto noise = noise::make_deletion_jitter(0.3, 1.0);

  SimWorkspace ws;
  SimResult result;
  const auto run_batch = [&] {
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      Rng rng = Rng::for_stream(4242, stream);
      simulate_into(SimRequest{&model, scheme.get(), noise.get(), &rng, &ws},
                    img, result);
    }
  };

  // Warm-up: grows every buffer (and builds the topology weight caches) to
  // the high-water mark of this exact batch.
  run_batch();
  const std::size_t predicted_warm = result.predicted_class;

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_batch();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in the steady-state repeat of "
      << scheme->name();
  // The repeat really re-ran the work (identical streams, identical result).
  EXPECT_EQ(result.predicted_class, predicted_warm);
}

INSTANTIATE_TEST_SUITE_P(AllCodings, ZeroAllocSweep,
                         ::testing::Values(Coding::kRate, Coding::kPhase,
                                           Coding::kBurst, Coding::kTtfs,
                                           Coding::kTtas),
                         [](const ::testing::TestParamInfo<Coding>& info) {
                           return coding_name(info.param);
                         });

TEST(ZeroAlloc, ConsecutiveSweepCellsOnPersistentPoolAllocateNothing) {
  // The sweep guarantee: once the calling thread's workspace is warm,
  // stepping across *cells* -- distinct (scheme, noise, model) combinations
  // evaluated back to back -- allocates nothing, not just stepping across
  // images within a cell. evaluate() is the serial reference loop; its
  // thread-local workspace persists across batches, as each grid worker's
  // does across the requests it pulls.
  const SnnModel base = test_model();
  SnnModel scaled = test_model();
  scaled.scale_all_weights(2.0f);

  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  for (std::uint64_t i = 0; i < 6; ++i) {
    images.push_back(test_image());
    labels.push_back(i % 5);
  }

  struct CellSpec {
    const SnnModel* model;
    CodingSchemePtr scheme;
    NoiseModelPtr noise;
  };
  std::vector<CellSpec> cells;
  cells.push_back({&base, coding::make_scheme(Coding::kRate),
                   noise::make_deletion(0.3)});
  cells.push_back({&scaled, coding::make_scheme(Coding::kRate),
                   noise::make_deletion(0.6)});
  cells.push_back({&base, core::make_ttas(5), noise::make_jitter(1.0)});
  cells.push_back({&scaled, coding::make_scheme(Coding::kBurst), nullptr});

  EvalOptions options;
  options.base_seed = 4242;

  const auto run_cells = [&] {
    double acc = 0.0;
    for (const CellSpec& cell : cells) {
      acc += evaluate(*cell.model, *cell.scheme, images, labels,
                      cell.noise.get(), options)
                 .accuracy;
    }
    return acc;
  };

  run_cells();  // warm-up: every cell's high-water mark, every weight cache
  const double warm_acc = run_cells();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const double repeat_acc = run_cells();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " allocations while re-running " << cells.size() << " sweep cells";
  EXPECT_DOUBLE_EQ(repeat_acc, warm_acc);  // the repeat re-ran the real work
}

TEST(ZeroAlloc, CleanPathAlsoAllocationFree) {
  const SnnModel model = test_model();
  const Tensor img = test_image();
  const auto scheme = coding::make_scheme(Coding::kRate);
  SimWorkspace ws;
  SimResult result;
  const SimRequest req{&model, scheme.get(), nullptr, nullptr, &ws};
  simulate_into(req, img, result);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    simulate_into(req, img, result);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace tsnn::snn
