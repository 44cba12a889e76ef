// Property-style equivalence suite for the batched spike-propagation
// engine: SynapseTopology::propagate_accum() -- the one batched entry point,
// which the simulator runs -- must equal the per-spike accumulate()
// reference slot for slot with ==, for dense, conv (stride/pad variants)
// and pooling topologies, at batch sizes from a few spikes to past the
// whole input, duplicates included; and it must agree with one
// apply_dense() pass over the gathered batch to float tolerance. A conv
// batch of at least ConvTopology::canonical_threshold() spikes runs in
// canonical order, so there the reference is accumulate() over the
// gathered batch: duplicates summed in batch order, ids ascending.
//
// The whole suite then re-runs once per runnable SIMD dispatch table
// (PropagateIsa/* below), and a cross-ISA matrix pins every vector variant
// to the scalar reference bit for bit on randomized shapes. TSNN_CPUFLAGS
// narrows which tables exist, so the CI scalar-forced leg runs the same
// tests with only the reference table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "simd/kernels.h"
#include "snn/event_buffer.h"
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

/// Spike count of a batch that is `fraction` of `syn`'s input, at least 1.
std::size_t batch_size(const SynapseTopology& syn, double fraction) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(syn.in_size()) +
                                  0.5));
}

/// Maps canonical postsynaptic index j to its accum_layout() slot, spelled
/// out from the layout contract rather than through AccumLayout::slot().
std::size_t accum_slot(const AccumLayout& l, std::size_t j) {
  return (j % l.cols) * l.rows + j / l.cols;
}

/// `batch` gathered: each neuron's magnitudes summed in batch order, the
/// neurons in ascending order.
SpikeBatch gathered(const SpikeBatch& batch, std::size_t in_size) {
  std::vector<float> sum(in_size, 0.0f);
  std::vector<bool> seen(in_size, false);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sum[batch.pre()[i]] += batch.magnitude()[i];
    seen[batch.pre()[i]] = true;
  }
  SpikeBatch out;
  for (std::size_t j = 0; j < in_size; ++j) {
    if (seen[j]) {
      out.add(static_cast<std::uint32_t>(j), sum[j]);
    }
  }
  return out;
}

/// The batch whose per-spike accumulate() propagate_accum() must equal:
/// `batch` itself, or its gathered form where conv takes the canonical
/// order.
SpikeBatch reference_order(const SynapseTopology& syn,
                           const SpikeBatch& batch) {
  const auto* conv = dynamic_cast<const ConvTopology*>(&syn);
  if (conv != nullptr && batch.size() >= conv->canonical_threshold()) {
    return gathered(batch, syn.in_size());
  }
  return batch;
}

/// Core property on one batch: propagate_accum equals per-spike
/// accumulate() over reference_order() slot for slot with ==, and one
/// apply_dense() pass over the gathered batch within 1e-5 (plus a small
/// relative cushion for large partial sums).
void expect_equivalent(const SynapseTopology& syn, const SpikeBatch& batch) {
  const std::size_t out = syn.out_size();
  std::vector<float> via_accum(out, 0.0f);
  syn.propagate_accum(batch, via_accum.data());
  const AccumLayout layout = syn.accum_layout();
  ASSERT_EQ(layout.rows * layout.cols, out);

  const SpikeBatch ref = reference_order(syn, batch);
  std::vector<float> via_events(out, 0.0f);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    syn.accumulate(ref.pre()[i], ref.magnitude()[i], via_events.data());
  }

  std::vector<float> x(syn.in_size(), 0.0f);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    x[batch.pre()[i]] += batch.magnitude()[i];
  }
  std::vector<float> via_dense(out, 0.0f);
  syn.apply_dense(x.data(), via_dense.data());

  for (std::size_t j = 0; j < out; ++j) {
    const float accum = via_accum[accum_slot(layout, j)];
    EXPECT_EQ(accum, via_events[j])
        << "accum vs events, batch " << batch.size() << " out " << j;
    EXPECT_NEAR(accum, via_dense[j], 1e-5f + 1e-6f * std::fabs(via_events[j]))
        << "accum vs dense, batch " << batch.size() << " out " << j;
  }
}

/// The property on a random batch of `fraction` x in_size() spikes (ids
/// distinct unless `duplicates`, which a fraction above 1 needs).
void expect_equivalent(const SynapseTopology& syn, double fraction,
                       std::uint64_t seed, bool duplicates = false) {
  expect_equivalent(syn, random_batch(syn.in_size(), batch_size(syn, fraction),
                                      seed, duplicates));
}

/// Sweeps batch sizes from sparse to past the whole input: below, at and
/// above conv's canonical threshold (3/4), duplicate-heavy batches, each
/// with its own seed.
void run_threshold_sweep(const SynapseTopology& syn, std::uint64_t seed) {
  for (const double fraction : {0.05, 0.5, 0.7, 0.75, 0.9, 1.0}) {
    expect_equivalent(syn, fraction, seed++);
  }
  for (const double fraction : {0.4, 0.75, 1.5}) {
    expect_equivalent(syn, fraction, seed++, /*duplicates=*/true);
  }
}

TEST(Propagate, DenseMatchesReferences) {
  DenseTopology syn(random_tensor(Shape{33, 48}, 1));
  run_threshold_sweep(syn, 2);
}

TEST(Propagate, DenseWideLayer) {
  DenseTopology syn(random_tensor(Shape{10, 256}, 3));
  run_threshold_sweep(syn, 4);
}

TEST(Propagate, DenseEqualsAccumulateAtEveryBatchSize) {
  // One batched path at every density: no batch size switches dense to
  // another summation order, so propagate_accum replays accumulate()'s
  // adds exactly from one spike up to the whole input, and past it with
  // duplicates.
  DenseTopology syn(random_tensor(Shape{19, 24}, 30));
  for (std::size_t count = 1; count <= 2 * syn.in_size(); ++count) {
    const SpikeBatch batch =
        random_batch(syn.in_size(), count, 31 + count, /*allow_duplicates=*/true);
    std::vector<float> a(syn.out_size(), 0.0f), b(syn.out_size(), 0.0f);
    syn.propagate_accum(batch, a.data());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      syn.accumulate(batch.pre()[i], batch.magnitude()[i], b.data());
    }
    EXPECT_EQ(a, b) << "batch " << count;
  }
}

TEST(Propagate, DenseEmptyBatchIsNoop) {
  DenseTopology syn(random_tensor(Shape{5, 7}, 5));
  std::vector<float> u(5, 0.25f);
  syn.propagate_accum(SpikeBatch{}, u.data());
  for (const float v : u) {
    EXPECT_FLOAT_EQ(v, 0.25f);
  }
}

TEST(Propagate, DenseOutOfRangeThrows) {
  DenseTopology syn(random_tensor(Shape{4, 6}, 6));
  SpikeBatch batch;
  batch.add(6, 1.0f);
  std::vector<float> u(4, 0.0f);
  EXPECT_THROW(syn.propagate_accum(batch, u.data()), InvalidArgument);
}

TEST(Propagate, DenseScaleWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{9, 12}, 7));
  const SpikeBatch batch = random_batch(12, 3, 8);
  std::vector<float> before(9, 0.0f);
  syn.propagate_accum(batch, before.data());  // builds the transposed copy
  syn.scale_weights(2.0f);
  std::vector<float> after(9, 0.0f);
  syn.propagate_accum(batch, after.data());
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_NEAR(after[j], 2.0f * before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseMapWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{6, 10}, 9));
  const SpikeBatch batch = random_batch(10, 4, 10);
  std::vector<float> before(6, 0.0f);
  syn.propagate_accum(batch, before.data());
  syn.map_weights([](float w) { return -w; });
  std::vector<float> after(6, 0.0f);
  syn.propagate_accum(batch, after.data());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(after[j], -before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseCloneAfterCacheBuildIsIndependent) {
  DenseTopology syn(random_tensor(Shape{8, 8}, 11));
  const SpikeBatch batch = random_batch(8, 3, 12);
  std::vector<float> u(8, 0.0f);
  syn.propagate_accum(batch, u.data());  // warm the cache before cloning
  auto copy = syn.clone();
  copy->scale_weights(0.0f);
  expect_equivalent(syn, batch);  // original unaffected
  std::vector<float> zeroed(8, 0.0f);
  copy->propagate_accum(batch, zeroed.data());
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

TEST(Propagate, ConvCanonicalOrderAtThreshold) {
  // A batch of canonical_threshold() spikes or more, with descending and
  // duplicate ids, equals accumulate() over the gathered batch slot for
  // slot. == treats +0 and -0 as equal, which allows the canonical order
  // to skip a neuron whose magnitudes sum to zero (it adds a signed zero).
  ConvTopology conv(random_tensor(Shape{4, 3, 3, 3}, 40), 6, 6, 1, 1);
  const auto in = static_cast<std::uint32_t>(conv.in_size());
  ASSERT_EQ(conv.canonical_threshold(), conv.in_size() * 3 / 4);
  for (const std::size_t count :
       {conv.canonical_threshold(), conv.in_size(), 2 * conv.in_size()}) {
    SpikeBatch batch;
    Rng rng(41 + count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pre =
          i < in ? in - 1 - static_cast<std::uint32_t>(i)  // descending run
                 : static_cast<std::uint32_t>(rng.uniform_index(in));
      batch.add(pre, static_cast<float>(rng.uniform(0.01, 1.0)));
      if (i % 7 == 0) {
        batch.add(pre, static_cast<float>(rng.uniform(0.01, 1.0)));  // again
      }
    }
    ASSERT_GE(batch.size(), conv.canonical_threshold());
    expect_equivalent(conv, batch);
  }
}

TEST(Propagate, ConvOutOfRangeThrowsOnBothOrders) {
  ConvTopology conv(random_tensor(Shape{2, 1, 3, 3}, 42), 4, 4, 1, 1);
  std::vector<float> u(conv.out_size(), 0.0f);
  for (const std::size_t count : {std::size_t{1}, conv.in_size()}) {
    SpikeBatch batch = random_batch(conv.in_size(), count, 43);
    batch.add(static_cast<std::uint32_t>(conv.in_size()), 1.0f);
    EXPECT_THROW(conv.propagate_accum(batch, u.data()), InvalidArgument)
        << "batch " << batch.size();
  }
}

TEST(Propagate, ConvScaleWeightsInvalidatesTapCache) {
  // propagate_accum() builds the tap tables and their {ic, k*k, oc} weight
  // copy on first use; scale_weights and map_weights must drop that copy.
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 21), 5, 5, 1, 1);
  const SpikeBatch batch = random_batch(syn.in_size(), 4, 22);
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
  syn.propagate_accum(batch, u.data());
  EXPECT_FLOAT_EQ(u[0], 4.0f * syn.pool_weight());  // (1+1+2) into cell 0
}

TEST(Propagate, AccumLayoutFollowsContract) {
  // Conv writes {spatial, channel}: canonical neuron j = c*cols + s at
  // slot s*rows + c; dense and pool keep the identity layout.
  ConvTopology conv(random_tensor(Shape{4, 3, 3, 3}, 50), 6, 6, 1, 1);
  const AccumLayout layout = conv.accum_layout();
  EXPECT_EQ(layout.rows, 4u);
  EXPECT_EQ(layout.rows * layout.cols, conv.out_size());
  for (std::size_t j = 0; j < conv.out_size(); ++j) {
    EXPECT_EQ(layout.slot(j), accum_slot(layout, j)) << "out " << j;
  }
  DenseTopology dense(random_tensor(Shape{9, 14}, 60));
  EXPECT_EQ(dense.accum_layout().rows, 1u);
  EXPECT_EQ(dense.accum_layout().cols, dense.out_size());
  PoolTopology pool(2, 4, 4, 2);
  EXPECT_EQ(pool.accum_layout().rows, 1u);
  EXPECT_EQ(pool.accum_layout().cols, pool.out_size());
}

TEST(Propagate, RandomizedShapeSweep) {
  Rng shape_rng(28);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t out = 4 + shape_rng.uniform_index(24);
    const std::size_t in = 8 + shape_rng.uniform_index(64);
    DenseTopology dense(
        random_tensor(Shape{out, in}, 100 + static_cast<std::uint64_t>(trial)));
    run_threshold_sweep(dense, 200 + static_cast<std::uint64_t>(trial) * 11);
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
    run_threshold_sweep(conv, 400 + static_cast<std::uint64_t>(trial) * 11);
  }
}

// --- Per-ISA equivalence matrix ------------------------------------------
//
// Every runnable dispatch table must satisfy the same propagate_accum/
// accumulate/apply_dense property as the default, and every vector variant
// must match the scalar reference output for output, bit for bit, at every
// batch size. Shapes are randomized with odd sizes so vector tails and
// remainder lanes are always exercised.

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
    run_threshold_sweep(dense, 600 + static_cast<std::uint64_t>(trial) * 11);
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
    run_threshold_sweep(conv, 800 + static_cast<std::uint64_t>(trial) * 11);
  }
}

TEST_P(PropagateIsa, ScatterBitExactVsScalar) {
  // Every batch size, sparse to the whole input, is bit-exact across every
  // ISA: same per-slot contributions in the same order.
  const DenseTopology dense(random_tensor(Shape{37, 53}, 900));
  const DenseTopology wide(random_tensor(Shape{41, 67}, 920));
  const ConvTopology conv(random_tensor(Shape{3, 2, 3, 3}, 901), 9, 9, 1, 1);
  std::uint64_t seed = 910;
  for (const SynapseTopology* syn :
       {static_cast<const SynapseTopology*>(&dense),
        static_cast<const SynapseTopology*>(&wide),
        static_cast<const SynapseTopology*>(&conv)}) {
    for (const double fraction : {0.1, 0.7, 1.0}) {
      const SpikeBatch batch =
          random_batch(syn->in_size(), batch_size(*syn, fraction), seed++);
      std::vector<float> scalar_u(syn->out_size(), 0.0f);
      std::vector<float> isa_u(syn->out_size(), 0.0f);
      {
        simd::ScopedKernelOverride scalar(simd::scalar_kernels());
        syn->propagate_accum(batch, scalar_u.data());
      }
      syn->propagate_accum(batch, isa_u.data());
      EXPECT_EQ(scalar_u, isa_u)
          << GetParam()->isa << " batch " << batch.size() << " of "
          << syn->in_size();
    }
  }
}

/// A random finalized train over `syn`'s input: `steps` steps of random
/// sizes (empty ones included, duplicates allowed), one step with the
/// whole input -- at or above conv's canonical threshold -- and one with
/// exactly the threshold's count; and one magnitude per step.
struct RandomTrain {
  EventBuffer events;
  std::vector<float> mag;  ///< one magnitude per step
};

RandomTrain random_train(const SynapseTopology& syn, std::size_t steps,
                         std::uint64_t seed) {
  const auto* conv = dynamic_cast<const ConvTopology*>(&syn);
  const std::size_t threshold =
      conv != nullptr ? conv->canonical_threshold() : syn.in_size();
  Rng rng(seed);
  RandomTrain train;
  train.events.reset(syn.in_size(), steps);
  std::vector<std::uint32_t> ids;
  for (std::size_t t = 0; t < steps; ++t) {
    std::size_t count = rng.uniform_index(syn.in_size() / 4 + 2);
    if (t == 2) {
      count = syn.in_size();
    } else if (t == 5) {
      count = threshold;
    } else if (t % 4 == 3) {
      count = 0;
    }
    ids.clear();
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<std::uint32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(syn.in_size()))));
    }
    train.events.push_step(static_cast<std::int32_t>(t), ids.data(),
                           ids.size());
    train.mag.push_back(static_cast<float>(rng.uniform(0.01, 1.0)));
  }
  EventSortScratch scratch;
  train.events.finalize(scratch);
  return train;
}

/// propagate_train (one magnitude per step, stride 0) equals, slot for
/// slot with ==, one propagate_accum per step of a SpikeBatch holding the
/// step's ids each at the step's magnitude (stride 1), in step order.
void expect_train_matches_steps(const SynapseTopology& syn,
                                std::uint64_t seed) {
  const RandomTrain train = random_train(syn, 12, seed);
  std::vector<float> stepped(syn.out_size(), 0.0f);
  SpikeBatch batch;
  for (std::size_t t = 0; t < train.events.window(); ++t) {
    const EventBuffer::StepSpan step = train.events.step(t);
    if (step.count != 0) {
      batch.clear();
      for (std::size_t i = 0; i < step.count; ++i) {
        batch.add(step.ids[i], train.mag[t]);
      }
      syn.propagate_accum(batch, stepped.data());
    }
  }
  std::vector<float> whole(syn.out_size(), 0.0f);
  syn.propagate_train(train.events, train.mag.data(), whole.data());
  for (std::size_t j = 0; j < whole.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(whole[j]),
              std::bit_cast<std::uint32_t>(stepped[j]))
        << simd::active_isa() << " slot " << j << " of " << whole.size();
  }
}

TEST_P(PropagateIsa, TrainMatchesPerStepPropagateAccum) {
  std::uint64_t seed = 1000;
  // Every zoo conv shape (3x3, stride 1, pad 1) at every zoo channel count,
  // plus shapes the fixed-geometry leaves do not cover.
  for (const std::size_t oc : {8ul, 12ul, 16ul, 24ul, 32ul, 64ul}) {
    for (const std::size_t ic : {1ul, 3ul, 16ul}) {
      for (const std::size_t hw : {16ul, 8ul, 4ul}) {
        const ConvTopology conv(random_tensor(Shape{oc, ic, 3, 3}, seed), hw,
                                hw, 1, 1);
        expect_train_matches_steps(conv, seed++);
      }
    }
  }
  const ConvTopology odd(random_tensor(Shape{5, 2, 3, 3}, seed), 6, 10, 1, 1);
  expect_train_matches_steps(odd, seed++);
  const ConvTopology strided(random_tensor(Shape{4, 2, 3, 3}, seed), 9, 9, 2, 1);
  expect_train_matches_steps(strided, seed++);
  const PoolTopology pool(8, 16, 16, 2);
  expect_train_matches_steps(pool, seed++);
  const DenseTopology dense(random_tensor(Shape{37, 53}, seed));
  expect_train_matches_steps(dense, seed++);
  // An empty train adds nothing.
  EventBuffer none;
  none.reset(dense.in_size(), 3);
  EventSortScratch scratch;
  none.finalize(scratch);
  const float mags[3] = {1.0f, 2.0f, 3.0f};
  std::vector<float> u(dense.out_size(), 0.5f);
  dense.propagate_train(none, mags, u.data());
  EXPECT_EQ(u, std::vector<float>(dense.out_size(), 0.5f));
}

TEST(Propagate, TrainOutOfRangeThrowsBeforeAnyCharge) {
  const ConvTopology conv(random_tensor(Shape{4, 2, 3, 3}, 1), 5, 5, 1, 1);
  const PoolTopology pool(2, 4, 4, 2);
  const DenseTopology dense(random_tensor(Shape{6, 9}, 2));
  for (const SynapseTopology* syn :
       {static_cast<const SynapseTopology*>(&conv),
        static_cast<const SynapseTopology*>(&pool),
        static_cast<const SynapseTopology*>(&dense)}) {
    // The train's own range is one wider than the synapse's input.
    const auto bad = static_cast<std::uint32_t>(syn->in_size());
    const std::uint32_t ids[3] = {0, 1, bad};
    EventBuffer train;
    train.reset(syn->in_size() + 1, 2);
    train.push_step(0, ids, 2);
    train.push_step(1, ids + 2, 1);
    EventSortScratch scratch;
    train.finalize(scratch);
    const float mags[2] = {1.0f, 1.0f};
    std::vector<float> u(syn->out_size(), 0.0f);
    EXPECT_THROW(syn->propagate_train(train, mags, u.data()), InvalidArgument);
    EXPECT_EQ(u, std::vector<float>(syn->out_size(), 0.0f));
  }
}

INSTANTIATE_TEST_SUITE_P(EveryIsa, PropagateIsa,
                         ::testing::ValuesIn(simd::runnable_tables()),
                         isa_test_name);

}  // namespace
}  // namespace tsnn::snn
