// Property-style equivalence suite for the batched spike-propagation
// engine: SynapseTopology::propagate() and propagate_accum() -- the batched
// kernel the simulator runs, which for conv is the tap-table kernel --
// must agree with the per-spike accumulate() reference and with one
// apply_dense() pass over the gathered batch, for dense, conv (stride/pad
// variants), and pooling topologies, on both sides of the
// sparse<->dense-drive threshold.
//
// The whole suite then re-runs once per runnable SIMD dispatch table
// (PropagateIsa/* below), and a cross-ISA matrix pins every vector variant
// to the scalar reference on randomized shapes: bit-exact on the scatter
// paths, <= 1e-5 on the reordered-summation dense drive. TSNN_CPUFLAGS
// narrows which tables exist, so the CI scalar-forced leg runs the same
// tests with only the reference table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simd/kernels.h"
#include "snn/topology.h"

namespace tsnn::snn {
namespace {

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Random batch of `count` spikes with magnitudes in (0, 1]; neurons may
/// repeat when `allow_duplicates` (duplicates must sum).
SpikeBatch random_batch(std::size_t in_size, std::size_t count,
                        std::uint64_t seed, bool allow_duplicates = false) {
  SpikeBatch batch;
  Rng rng(seed);
  std::vector<bool> used(in_size, false);
  for (std::size_t i = 0; i < count; ++i) {
    auto pre = static_cast<std::uint32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(in_size)));
    if (!allow_duplicates) {
      while (used[pre]) {
        pre = static_cast<std::uint32_t>(pre + 1) %
              static_cast<std::uint32_t>(in_size);
      }
      used[pre] = true;
    }
    batch.add(pre, static_cast<float>(rng.uniform(0.01, 1.0)));
  }
  return batch;
}

/// Maps canonical postsynaptic index j to its accum_layout() slot, spelled
/// out from the layout contract rather than through AccumLayout::slot().
std::size_t accum_slot(const AccumLayout& l, std::size_t j) {
  return (j % l.cols) * l.rows + j / l.cols;
}

/// Core property: propagate == sum of accumulate == apply_dense(gather)
/// within 1e-5 (plus a small relative cushion for large partial sums), and
/// propagate_accum equals the per-spike reference slot for slot: exactly
/// below the dense-drive threshold, to the same tolerance at or above it.
void expect_equivalent(const SynapseTopology& syn, const SpikeBatch& batch) {
  const std::size_t out = syn.out_size();
  std::vector<float> via_batch(out, 0.0f);
  syn.propagate(batch, via_batch.data());

  std::vector<float> via_accum(out, 0.0f);
  syn.propagate_accum(batch, via_accum.data());
  const AccumLayout layout = syn.accum_layout();
  const bool sparse = batch.size() < syn.dense_drive_threshold();

  std::vector<float> via_events(out, 0.0f);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    syn.accumulate(batch.pre()[i], batch.magnitude()[i], via_events.data());
  }

  std::vector<float> x(syn.in_size(), 0.0f);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    x[batch.pre()[i]] += batch.magnitude()[i];
  }
  std::vector<float> via_dense(out, 0.0f);
  syn.apply_dense(x.data(), via_dense.data());

  for (std::size_t j = 0; j < out; ++j) {
    const float tol = 1e-5f + 1e-6f * std::fabs(via_events[j]);
    EXPECT_NEAR(via_batch[j], via_events[j], tol) << "vs events, out " << j;
    EXPECT_NEAR(via_batch[j], via_dense[j], tol) << "vs dense, out " << j;
    const float accum = via_accum[accum_slot(layout, j)];
    if (sparse) {
      EXPECT_EQ(accum, via_events[j]) << "accum vs events, out " << j;
    } else {
      EXPECT_NEAR(accum, via_events[j], tol) << "accum vs events, out " << j;
    }
  }
}

/// Exercises both sides of the density threshold plus a duplicate-heavy
/// batch, with distinct seeds.
void run_threshold_sweep(const SynapseTopology& syn, std::uint64_t seed) {
  const std::size_t threshold = syn.dense_drive_threshold();
  ASSERT_GT(threshold, 0u);
  ASSERT_LE(threshold, syn.in_size());
  // Just below: per-spike scatter kernels.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold - 1, seed));
  // At/above: the dense drive takes over.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold, seed + 1));
  expect_equivalent(syn, random_batch(syn.in_size(), syn.in_size(), seed + 2));
  // Duplicates sum regardless of path.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold / 2 + 1, seed + 3,
                                      /*allow_duplicates=*/true));
}

TEST(Propagate, DenseMatchesReferences) {
  DenseTopology syn(random_tensor(Shape{33, 48}, 1));
  run_threshold_sweep(syn, 2);
}

TEST(Propagate, DenseWideLayer) {
  DenseTopology syn(random_tensor(Shape{10, 256}, 3));
  run_threshold_sweep(syn, 4);
}

TEST(Propagate, DenseEmptyBatchIsNoop) {
  DenseTopology syn(random_tensor(Shape{5, 7}, 5));
  std::vector<float> u(5, 0.25f);
  syn.propagate(SpikeBatch{}, u.data());
  for (const float v : u) {
    EXPECT_FLOAT_EQ(v, 0.25f);
  }
}

TEST(Propagate, DenseOutOfRangeThrows) {
  DenseTopology syn(random_tensor(Shape{4, 6}, 6));
  SpikeBatch batch;
  batch.add(6, 1.0f);
  std::vector<float> u(4, 0.0f);
  EXPECT_THROW(syn.propagate(batch, u.data()), InvalidArgument);
}

TEST(Propagate, DenseScaleWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{9, 12}, 7));
  const SpikeBatch batch = random_batch(12, 3, 8);
  std::vector<float> before(9, 0.0f);
  syn.propagate(batch, before.data());  // builds the transposed copy
  syn.scale_weights(2.0f);
  std::vector<float> after(9, 0.0f);
  syn.propagate(batch, after.data());
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_NEAR(after[j], 2.0f * before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseMapWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{6, 10}, 9));
  const SpikeBatch batch = random_batch(10, 4, 10);
  std::vector<float> before(6, 0.0f);
  syn.propagate(batch, before.data());
  syn.map_weights([](float w) { return -w; });
  std::vector<float> after(6, 0.0f);
  syn.propagate(batch, after.data());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(after[j], -before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseCloneAfterCacheBuildIsIndependent) {
  DenseTopology syn(random_tensor(Shape{8, 8}, 11));
  const SpikeBatch batch = random_batch(8, 3, 12);
  std::vector<float> u(8, 0.0f);
  syn.propagate(batch, u.data());  // warm the cache before cloning
  auto copy = syn.clone();
  copy->scale_weights(0.0f);
  expect_equivalent(syn, batch);  // original unaffected
  std::vector<float> zeroed(8, 0.0f);
  copy->propagate(batch, zeroed.data());
  for (const float v : zeroed) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Propagate, ConvStride1Pad1) {
  ConvTopology syn(random_tensor(Shape{4, 3, 3, 3}, 13), 8, 8, 1, 1);
  run_threshold_sweep(syn, 14);
}

TEST(Propagate, ConvStride2NoPad) {
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 15), 9, 9, 2, 0);
  run_threshold_sweep(syn, 16);
}

TEST(Propagate, ConvStride2Pad2Kernel5) {
  ConvTopology syn(random_tensor(Shape{3, 2, 5, 5}, 17), 10, 10, 2, 2);
  run_threshold_sweep(syn, 18);
}

TEST(Propagate, ConvRectangularInput) {
  ConvTopology syn(random_tensor(Shape{2, 1, 3, 3}, 19), 6, 11, 1, 1);
  run_threshold_sweep(syn, 20);
}

TEST(Propagate, ConvScaleWeightsInvalidatesTapCache) {
  // propagate_accum() builds the tap tables and their {ic, k*k, oc} weight
  // copy on first use; scale_weights and map_weights must drop that copy.
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 21), 5, 5, 1, 1);
  const SpikeBatch batch = random_batch(syn.in_size(), 4, 22);
  ASSERT_LT(batch.size(), syn.dense_drive_threshold());  // tap-table path
  std::vector<float> before(syn.out_size(), 0.0f);
  syn.propagate_accum(batch, before.data());  // builds the tap cache
  syn.scale_weights(3.0f);
  std::vector<float> after(syn.out_size(), 0.0f);
  syn.propagate_accum(batch, after.data());
  for (std::size_t j = 0; j < syn.out_size(); ++j) {
    EXPECT_NEAR(after[j], 3.0f * before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
  expect_equivalent(syn, batch);

  syn.map_weights([](float w) { return -w; });
  std::vector<float> negated(syn.out_size(), 0.0f);
  syn.propagate_accum(batch, negated.data());
  for (std::size_t j = 0; j < syn.out_size(); ++j) {
    EXPECT_EQ(negated[j], -after[j]) << "out " << j;  // negation is exact
  }
  expect_equivalent(syn, batch);
}

TEST(Propagate, PoolMatchesReferences) {
  PoolTopology syn(3, 6, 6, 2);
  run_threshold_sweep(syn, 23);
}

TEST(Propagate, PoolDuplicatesSum) {
  PoolTopology syn(1, 4, 4, 2);
  SpikeBatch batch;
  batch.add(0, 1.0f);
  batch.add(0, 1.0f);  // same pre twice
  batch.add(5, 2.0f);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate(batch, u.data());
  EXPECT_FLOAT_EQ(u[0], 4.0f * syn.pool_weight());  // (1+1+2) into cell 0
}

TEST(Propagate, SparsePathMatchesAccumulateBitwise) {
  // Below the threshold the dense and conv kernels replay accumulate()'s
  // exact adds (same values, same order) through a transposed weight copy
  // and the conv tap tables, so results are bit-identical -- the engine
  // swap cannot move logits on sparse steps.
  DenseTopology dense(random_tensor(Shape{17, 29}, 24));
  const SpikeBatch db = random_batch(29, 5, 25);
  std::vector<float> a(17, 0.0f), b(17, 0.0f);
  dense.propagate(db, a.data());
  for (std::size_t i = 0; i < db.size(); ++i) {
    dense.accumulate(db.pre()[i], db.magnitude()[i], b.data());
  }
  EXPECT_EQ(a, b);

  ConvTopology conv(random_tensor(Shape{3, 2, 3, 3}, 26), 7, 7, 1, 1);
  const SpikeBatch cb = random_batch(conv.in_size(), 6, 27);
  std::vector<float> ca(conv.out_size(), 0.0f), cbv(conv.out_size(), 0.0f);
  conv.propagate_accum(cb, ca.data());
  for (std::size_t i = 0; i < cb.size(); ++i) {
    conv.accumulate(cb.pre()[i], cb.magnitude()[i], cbv.data());
  }
  const AccumLayout layout = conv.accum_layout();
  for (std::size_t j = 0; j < conv.out_size(); ++j) {
    EXPECT_EQ(ca[accum_slot(layout, j)], cbv[j]) << "out " << j;
  }
}

TEST(Propagate, AccumIsBitIdenticalUpToLayoutPermutation) {
  // propagate_accum() is propagate() writing into the topology's internal
  // accumulator layout: slot for slot, the same contributions in the same
  // order, so equality is exact (==), not approximate -- on both sides of
  // the dense-drive threshold.
  ConvTopology conv(random_tensor(Shape{4, 3, 3, 3}, 50), 6, 6, 1, 1);
  const AccumLayout layout = conv.accum_layout();
  EXPECT_EQ(layout.rows, 4u);
  EXPECT_EQ(layout.rows * layout.cols, conv.out_size());
  for (const std::size_t count :
       {std::size_t{5}, conv.dense_drive_threshold(), conv.in_size()}) {
    const SpikeBatch batch = random_batch(conv.in_size(), count, 51 + count);
    std::vector<float> canonical(conv.out_size(), 0.0f);
    std::vector<float> accum(conv.out_size(), 0.0f);
    conv.propagate(batch, canonical.data());
    conv.propagate_accum(batch, accum.data());
    for (std::size_t j = 0; j < conv.out_size(); ++j) {
      EXPECT_EQ(canonical[j], accum[accum_slot(layout, j)])
          << "batch " << count << " out " << j;
      EXPECT_EQ(layout.slot(j), accum_slot(layout, j)) << "out " << j;
    }
  }

  // Identity-layout topologies: propagate_accum is propagate verbatim.
  DenseTopology dense(random_tensor(Shape{9, 14}, 60));
  EXPECT_EQ(dense.accum_layout().rows, 1u);
  EXPECT_EQ(dense.accum_layout().cols, dense.out_size());
  const SpikeBatch db = random_batch(14, 4, 61);
  std::vector<float> a(9, 0.0f), b(9, 0.0f);
  dense.propagate(db, a.data());
  dense.propagate_accum(db, b.data());
  EXPECT_EQ(a, b);
}

TEST(Propagate, RandomizedShapeSweep) {
  Rng shape_rng(28);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t out = 4 + shape_rng.uniform_index(24);
    const std::size_t in = 8 + shape_rng.uniform_index(64);
    DenseTopology dense(
        random_tensor(Shape{out, in}, 100 + static_cast<std::uint64_t>(trial)));
    run_threshold_sweep(dense, 200 + static_cast<std::uint64_t>(trial) * 7);
  }
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t oc = 1 + shape_rng.uniform_index(4);
    const std::size_t ic = 1 + shape_rng.uniform_index(3);
    const std::size_t hw = 6 + shape_rng.uniform_index(6);
    const std::size_t stride = 1 + shape_rng.uniform_index(2);
    const std::size_t pad = shape_rng.uniform_index(2);
    ConvTopology conv(random_tensor(Shape{oc, ic, 3, 3},
                                    300 + static_cast<std::uint64_t>(trial)),
                      hw, hw, stride, pad);
    run_threshold_sweep(conv, 400 + static_cast<std::uint64_t>(trial) * 7);
  }
}

// --- Per-ISA equivalence matrix ------------------------------------------
//
// Every runnable dispatch table must satisfy the same propagate/accumulate/
// apply_dense property as the default, and every vector variant must match
// the scalar reference output for output: bit-exact where the kernel
// contract promises it (per-spike scatter, conv taps, accum layouts),
// within 1e-5 where summation order legitimately differs (dense drive /
// matvec). Shapes are randomized with odd sizes so vector
// tails and remainder lanes are always exercised.

std::string isa_test_name(
    const ::testing::TestParamInfo<const simd::KernelDispatch*>& info) {
  std::string name = info.param->isa;
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

class PropagateIsa
    : public ::testing::TestWithParam<const simd::KernelDispatch*> {
 protected:
  simd::ScopedKernelOverride override_{*GetParam()};
};

TEST_P(PropagateIsa, DensePropertySweep) {
  Rng shape_rng(70);
  for (int trial = 0; trial < 4; ++trial) {
    // Deliberately odd sizes: 8k+tail fan-outs, partial last vector lane.
    const std::size_t out = 3 + 2 * shape_rng.uniform_index(32);
    const std::size_t in = 9 + 2 * shape_rng.uniform_index(48);
    DenseTopology dense(random_tensor(
        Shape{out, in}, 500 + static_cast<std::uint64_t>(trial)));
    run_threshold_sweep(dense, 600 + static_cast<std::uint64_t>(trial) * 7);
  }
}

TEST_P(PropagateIsa, ConvPropertySweep) {
  Rng shape_rng(71);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t oc = 1 + shape_rng.uniform_index(5);
    const std::size_t hw = 5 + 2 * shape_rng.uniform_index(4);  // odd sides
    const std::size_t stride = 1 + shape_rng.uniform_index(2);
    ConvTopology conv(random_tensor(Shape{oc, 2, 3, 3},
                                    700 + static_cast<std::uint64_t>(trial)),
                      hw, hw, stride, 1);
    run_threshold_sweep(conv, 800 + static_cast<std::uint64_t>(trial) * 7);
  }
}

TEST_P(PropagateIsa, SparseScatterBitExactVsScalar) {
  // Below the dense-drive threshold the scatter kernels are bit-exact
  // across every ISA: same per-slot contributions in the same order.
  DenseTopology dense(random_tensor(Shape{37, 53}, 900));
  ConvTopology conv(random_tensor(Shape{3, 2, 3, 3}, 901), 9, 9, 1, 1);
  for (std::uint64_t seed = 910; seed < 914; ++seed) {
    for (const SynapseTopology* syn :
         {static_cast<const SynapseTopology*>(&dense),
          static_cast<const SynapseTopology*>(&conv)}) {
      const SpikeBatch batch = random_batch(
          syn->in_size(), syn->dense_drive_threshold() - 1, seed);
      std::vector<float> scalar_u(syn->out_size(), 0.0f);
      std::vector<float> isa_u(syn->out_size(), 0.0f);
      {
        simd::ScopedKernelOverride scalar(simd::scalar_kernels());
        syn->propagate(batch, scalar_u.data());
      }
      syn->propagate(batch, isa_u.data());
      EXPECT_EQ(scalar_u, isa_u) << GetParam()->isa << " seed " << seed;

      // propagate_accum shares the same exactness contract.
      std::vector<float> scalar_acc(syn->out_size(), 0.0f);
      std::vector<float> isa_acc(syn->out_size(), 0.0f);
      {
        simd::ScopedKernelOverride scalar(simd::scalar_kernels());
        syn->propagate_accum(batch, scalar_acc.data());
      }
      syn->propagate_accum(batch, isa_acc.data());
      EXPECT_EQ(scalar_acc, isa_acc) << GetParam()->isa << " seed " << seed;
    }
  }
}

TEST_P(PropagateIsa, DenseDriveMatchesScalarWithinTolerance) {
  // At/above the threshold the matvec path may reorder the dot-product
  // reduction, so the contract is <= 1e-5 absolute plus a
  // small relative term -- the same bound the kernel-level suite enforces.
  DenseTopology dense(random_tensor(Shape{41, 67}, 920));
  for (std::uint64_t seed = 930; seed < 933; ++seed) {
    const SpikeBatch batch =
        random_batch(dense.in_size(), dense.in_size(), seed);
    std::vector<float> scalar_u(dense.out_size(), 0.0f);
    std::vector<float> isa_u(dense.out_size(), 0.0f);
    {
      simd::ScopedKernelOverride scalar(simd::scalar_kernels());
      dense.propagate(batch, scalar_u.data());
    }
    dense.propagate(batch, isa_u.data());
    for (std::size_t j = 0; j < dense.out_size(); ++j) {
      EXPECT_NEAR(scalar_u[j], isa_u[j],
                  1e-5f + 1e-5f * std::fabs(scalar_u[j]))
          << GetParam()->isa << " seed " << seed << " out " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryIsa, PropagateIsa,
                         ::testing::ValuesIn(simd::runnable_tables()),
                         isa_test_name);

}  // namespace
}  // namespace tsnn::snn
