// Tests for the experiment harness: method specs, the grid scheduler
// (thread-count invariance, cell streaming order, sharding, resume
// injection), and the scaled-model cache.
#include <gtest/gtest.h>

#include "coding/registry.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/weight_scaling.h"
#include "noise/noise.h"
#include "snn/topology.h"

namespace tsnn::core {
namespace {

using snn::Coding;

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
    for (int i = 0; i < 20; ++i) {
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

  /// A cell over this fixture's images, on `scaled` when given (else on
  /// the fixture's model).
  EvalCell cell(const snn::CodingScheme& scheme,
                const snn::NoiseModel* noise = nullptr,
                std::uint64_t seed = 0xBEEF,
                const snn::SnnModel* scaled = nullptr) const {
    EvalCell c;
    c.model = scaled != nullptr ? scaled : &model;
    c.scheme = &scheme;
    c.noise = noise;
    c.images = &images;
    c.labels = &labels;
    c.seed = seed;
    return c;
  }
};

snn::CodingSchemePtr scheme_of(const MethodSpec& method) {
  return coding::make_scheme(method.coding, method.params);
}

/// A mixed grid: every (method, noise) pair on the base model and on a
/// weight-scaled clone, each cell with its own seed.
struct MixedGrid {
  ScaledModelCache cache;
  std::vector<snn::CodingSchemePtr> schemes;
  std::vector<snn::NoiseModelPtr> noises;
  std::vector<EvalCell> cells;

  explicit MixedGrid(const Fixture& f) : cache(f.model) {
    for (const MethodSpec& m : {baseline_method(Coding::kRate, false),
                                baseline_method(Coding::kBurst, false),
                                ttas_method(3, false)}) {
      schemes.push_back(scheme_of(m));
    }
    noises.push_back(nullptr);
    noises.push_back(noise::make_deletion(0.3));
    noises.push_back(noise::make_jitter(1.0));
    std::uint64_t seed = 100;
    for (const float factor : {1.0f, weight_scaling_factor(0.3)}) {
      const snn::SnnModel& model = cache.get(factor);
      for (const snn::CodingSchemePtr& s : schemes) {
        for (const snn::NoiseModelPtr& n : noises) {
          cells.push_back(f.cell(*s, n.get(), seed++, &model));
        }
      }
    }
  }
};

void expect_results_identical(const std::vector<EvalCellResult>& a,
                              const std::vector<EvalCellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].accuracy, b[c].accuracy) << "cell " << c;
    EXPECT_EQ(a[c].mean_spikes, b[c].mean_spikes) << "cell " << c;
    EXPECT_EQ(a[c].mean_decision_timesteps, b[c].mean_decision_timesteps)
        << "cell " << c;
  }
}

TEST(MethodSpec, BaselineLabels) {
  EXPECT_EQ(baseline_method(Coding::kRate, false).label, "rate");
  EXPECT_EQ(baseline_method(Coding::kBurst, true).label, "burst+WS");
  EXPECT_TRUE(baseline_method(Coding::kBurst, true).weight_scaling);
}

TEST(MethodSpec, TtasLabels) {
  const MethodSpec spec = ttas_method(5, true);
  EXPECT_EQ(spec.label, "ttas(5)+WS");
  EXPECT_EQ(spec.params.burst_duration, 5u);
  EXPECT_EQ(spec.coding, Coding::kTtas);
}

TEST(GridScheduler, CleanCellIsNoiseless) {
  const Fixture f;
  const auto rate = scheme_of(baseline_method(Coding::kRate, false));
  const auto results = run_grid({f.cell(*rate)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].accuracy, 1.0);  // tiny problem is separable
}

TEST(GridScheduler, SpikesDecreaseWithDeletionP) {
  const Fixture f;
  const auto rate = scheme_of(baseline_method(Coding::kRate, false));
  const auto half = noise::make_deletion(0.5);
  const auto most = noise::make_deletion(0.9);
  const auto results =
      run_grid({f.cell(*rate), f.cell(*rate, half.get()),
                f.cell(*rate, most.get())});
  EXPECT_GT(results[0].mean_spikes, results[1].mean_spikes);
  EXPECT_GT(results[1].mean_spikes, results[2].mean_spikes);
}

TEST(GridScheduler, SpikeCountStableUnderJitter) {
  const Fixture f;
  const auto rate = scheme_of(baseline_method(Coding::kRate, false));
  const auto jitter = noise::make_jitter(2.0);
  const auto results = run_grid({f.cell(*rate), f.cell(*rate, jitter.get())});
  // Jitter never deletes: spike counts stay within a few percent (layer
  // dynamics can shift slightly).
  EXPECT_NEAR(results[1].mean_spikes / results[0].mean_spikes, 1.0, 0.1);
}

TEST(GridScheduler, RejectsIncompleteCells) {
  const Fixture f;
  const auto rate = scheme_of(baseline_method(Coding::kRate, false));
  EvalCell no_model = f.cell(*rate);
  no_model.model = nullptr;
  EXPECT_THROW(run_grid({no_model}), InvalidArgument);
  EvalCell no_scheme = f.cell(*rate);
  no_scheme.scheme = nullptr;
  EXPECT_THROW(run_grid({no_scheme}), InvalidArgument);
  EvalCell no_labels = f.cell(*rate);
  no_labels.labels = nullptr;
  EXPECT_THROW(run_grid({no_labels}), InvalidArgument);
  const std::vector<std::size_t> short_labels(3, 0);
  EvalCell mismatched = f.cell(*rate);
  mismatched.labels = &short_labels;
  EXPECT_THROW(run_grid({mismatched}), InvalidArgument);
}

TEST(GridScheduler, RowsBitIdenticalAt1_2_8Threads) {
  // The serial walk is the reference; a second serial run, the admission-
  // queued parallel path (hardware concurrency, 2, 8 and 16 workers), and
  // its micro-batched pulls must not move a bit.
  const Fixture f;
  const MixedGrid grid(f);
  const auto reference = run_grid(grid.cells);
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8},
        std::size_t{16}}) {
    GridOptions options;
    options.num_threads = threads;
    expect_results_identical(reference, run_grid(grid.cells, options));
  }
}

TEST(GridScheduler, FewerTasksThanThreads) {
  // Three tasks on 16 workers: most workers never pull a request, and the
  // grid still completes every cell bit-identically to the serial walk.
  const Fixture f;
  const std::vector<Tensor> two_images(f.images.begin(), f.images.begin() + 2);
  const std::vector<std::size_t> two_labels(f.labels.begin(),
                                            f.labels.begin() + 2);
  const std::vector<Tensor> one_image(f.images.begin(), f.images.begin() + 1);
  const std::vector<std::size_t> one_label(f.labels.begin(),
                                           f.labels.begin() + 1);
  const auto rate = scheme_of(baseline_method(Coding::kRate, false));
  const auto deletion = noise::make_deletion(0.5);
  std::vector<EvalCell> cells = {f.cell(*rate, deletion.get(), 7),
                                 f.cell(*rate, nullptr, 8)};
  cells[0].images = &two_images;
  cells[0].labels = &two_labels;
  cells[1].images = &one_image;
  cells[1].labels = &one_label;

  const auto reference = run_grid(cells);
  GridOptions options;
  options.num_threads = 16;
  expect_results_identical(reference, run_grid(cells, options));
}

TEST(GridScheduler, StreamsCellsInIndexOrderAtAnyThreadCount) {
  const Fixture f;
  const MixedGrid grid(f);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    GridOptions options;
    options.num_threads = threads;
    std::vector<std::size_t> order;
    std::vector<EvalCellResult> streamed;
    options.on_cell = [&](std::size_t c, const EvalCellResult& r) {
      order.push_back(c);
      streamed.push_back(r);
    };
    const auto returned = run_grid(grid.cells, options);
    ASSERT_EQ(order.size(), grid.cells.size());
    for (std::size_t c = 0; c < order.size(); ++c) {
      EXPECT_EQ(order[c], c) << "threads " << threads;
    }
    expect_results_identical(returned, streamed);
  }
}

TEST(GridScheduler, ShardsPartitionTheGridAtAnyThreadCount) {
  // Reassembling every shard of an i/N split must reproduce the unsharded
  // run bit-for-bit, at any thread count per shard -- the merge_shards
  // contract. 7 cells so the split is uneven.
  const Fixture f;
  const snn::CodingSchemePtr scheme =
      coding::make_scheme(Coding::kRate, coding::default_params(Coding::kRate));
  std::vector<EvalCell> cells(7);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].model = &f.model;
    cells[c].scheme = scheme.get();
    cells[c].images = &f.images;
    cells[c].labels = &f.labels;
    cells[c].seed = 100 + c;
  }
  GridOptions serial;
  serial.num_threads = 1;
  const auto reference = run_grid(cells, serial);

  const std::size_t thread_counts[] = {1, 2, 8};
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}}) {
    std::vector<EvalCellResult> reassembled(cells.size());
    for (std::size_t i = 0; i < n; ++i) {
      GridOptions options;
      options.shard = GridShard{i, n};
      // Different shards on different thread counts, like an overnight
      // split across unequal machines.
      options.num_threads = thread_counts[i % 3];
      std::vector<std::size_t> emitted;
      options.on_cell = [&](std::size_t c, const EvalCellResult& r) {
        emitted.push_back(c);
        reassembled[c] = r;
      };
      const auto results = run_grid(cells, options);
      ASSERT_EQ(results.size(), cells.size());
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c % n == i) {
          EXPECT_DOUBLE_EQ(results[c].accuracy, reference[c].accuracy)
              << "cell " << c << " shard " << i << "/" << n;
        } else {
          // Unowned cells come back default-initialized, never evaluated.
          EXPECT_DOUBLE_EQ(results[c].mean_spikes, 0.0);
        }
      }
      // on_cell fires for owned cells only, in cell order.
      std::size_t expect_next = i;
      for (const std::size_t c : emitted) {
        EXPECT_EQ(c, expect_next);
        expect_next += n;
      }
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_DOUBLE_EQ(reassembled[c].accuracy, reference[c].accuracy)
          << "cell " << c << " N " << n;
      EXPECT_DOUBLE_EQ(reassembled[c].mean_spikes, reference[c].mean_spikes);
      EXPECT_DOUBLE_EQ(reassembled[c].mean_decision_timesteps,
                       reference[c].mean_decision_timesteps);
    }
  }

  // N > cell count: most shards own nothing and that is legal.
  GridOptions options;
  options.shard = GridShard{cells.size() + 1, cells.size() + 3};
  const auto empty = run_grid(cells, options);
  ASSERT_EQ(empty.size(), cells.size());
  for (const EvalCellResult& r : empty) {
    EXPECT_DOUBLE_EQ(r.mean_spikes, 0.0);
  }
}

TEST(GridScheduler, CompletedCellsAreInjectedNotReevaluated) {
  // The resume hook: cells the checkpoint already has are injected into the
  // result and emission streams without being executed, and the rest of the
  // grid is unaffected -- resuming is invisible downstream.
  const Fixture f;
  const snn::CodingSchemePtr scheme =
      coding::make_scheme(Coding::kRate, coding::default_params(Coding::kRate));
  std::vector<EvalCell> cells(5);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].model = &f.model;
    cells[c].scheme = scheme.get();
    cells[c].images = &f.images;
    cells[c].labels = &f.labels;
    cells[c].seed = 100 + c;
  }
  GridOptions serial;
  serial.num_threads = 1;
  const auto reference = run_grid(cells, serial);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    GridOptions options;
    options.num_threads = threads;
    options.completed = [](std::size_t c, EvalCellResult* out) {
      if (c != 0 && c != 2) {
        return false;
      }
      out->accuracy = 0.125 + static_cast<double>(c);  // sentinel, not real
      out->mean_spikes = 1000.0;
      return true;
    };
    std::vector<std::size_t> emitted;
    options.on_cell = [&](std::size_t c, const EvalCellResult& r) {
      emitted.push_back(c);
      if (c == 0 || c == 2) {
        // Injected cells surface the checkpoint's values verbatim.
        EXPECT_DOUBLE_EQ(r.accuracy, 0.125 + static_cast<double>(c));
        EXPECT_DOUBLE_EQ(r.mean_spikes, 1000.0);
      } else {
        EXPECT_DOUBLE_EQ(r.accuracy, reference[c].accuracy);
        EXPECT_DOUBLE_EQ(r.mean_spikes, reference[c].mean_spikes);
      }
    };
    const auto results = run_grid(cells, options);
    ASSERT_EQ(emitted.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(emitted[c], c);  // emission order unchanged by injection
    }
    EXPECT_DOUBLE_EQ(results[0].accuracy, 0.125);
    EXPECT_DOUBLE_EQ(results[2].accuracy, 2.125);
  }
}

TEST(GridScheduler, RejectsInvalidShard) {
  const Fixture f;
  const snn::CodingSchemePtr scheme =
      coding::make_scheme(Coding::kRate, coding::default_params(Coding::kRate));
  std::vector<EvalCell> cells(1);
  cells[0].model = &f.model;
  cells[0].scheme = scheme.get();
  cells[0].images = &f.images;
  cells[0].labels = &f.labels;

  GridOptions options;
  options.shard = GridShard{2, 2};  // index must be < count
  EXPECT_THROW(run_grid(cells, options), InvalidArgument);
  options.shard = GridShard{0, 0};  // zero shards is meaningless
  EXPECT_THROW(run_grid(cells, options), InvalidArgument);
}

TEST(ScaledModelCache, SharesBaseAndCachesPerFactor) {
  const Fixture f;
  ScaledModelCache cache(f.model);

  // Factor 1 is the base model itself, never a clone.
  EXPECT_EQ(&cache.get(1.0f), &f.model);
  EXPECT_EQ(cache.num_clones(), 0u);

  const snn::SnnModel& a = cache.get(2.0f);
  EXPECT_NE(&a, &f.model);
  EXPECT_EQ(cache.num_clones(), 1u);

  // A cache hit returns the same clone; a new factor materializes one more.
  EXPECT_EQ(&cache.get(2.0f), &a);
  EXPECT_EQ(cache.num_clones(), 1u);
  const snn::SnnModel& b = cache.get(4.0f);
  EXPECT_NE(&b, &a);
  EXPECT_EQ(cache.num_clones(), 2u);
  EXPECT_EQ(&cache.get(2.0f), &a);
  EXPECT_EQ(&cache.get(4.0f), &b);
}

TEST(ScaledModelCache, CloneCarriesScaledWeights) {
  const Fixture f;
  ScaledModelCache cache(f.model);
  const snn::SnnModel& scaled = cache.get(3.0f);
  const Tensor& base_w =
      static_cast<const snn::DenseTopology&>(*f.model.stage(0).synapse).weight();
  const Tensor& scaled_w =
      static_cast<const snn::DenseTopology&>(*scaled.stage(0).synapse).weight();
  ASSERT_EQ(base_w.numel(), scaled_w.numel());
  for (std::size_t i = 0; i < base_w.numel(); ++i) {
    EXPECT_FLOAT_EQ(scaled_w[i], 3.0f * base_w[i]);
  }
}

}  // namespace
}  // namespace tsnn::core
