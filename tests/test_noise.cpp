// Tests for the spike-noise models: statistical invariants of deletion and
// jitter, composition, and device profiles.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "noise/deletion.h"
#include "noise/device_profile.h"
#include "noise/jitter.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "snn/event_buffer.h"

namespace tsnn::noise {
namespace {

/// Dense test raster: every neuron spikes at every step.
snn::SpikeRaster full_raster(std::size_t neurons, std::size_t window) {
  snn::SpikeRaster r(neurons, window);
  for (std::size_t t = 0; t < window; ++t) {
    for (std::uint32_t n = 0; n < neurons; ++n) {
      r.add(t, n);
    }
  }
  return r;
}

class DeletionSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeletionSweep, RemovesApproximatelyPFraction) {
  const double p = GetParam();
  const DeletionNoise noise(p);
  const snn::SpikeRaster in = full_raster(50, 40);  // 2000 spikes
  Rng rng(77);
  const snn::SpikeRaster out = noise.apply(in, rng);
  const double kept = static_cast<double>(out.total_spikes()) /
                      static_cast<double>(in.total_spikes());
  EXPECT_NEAR(kept, 1.0 - p, 0.04) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, DeletionSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                           0.8, 0.9));

TEST(Deletion, NeverAddsOrMovesSpikes) {
  const DeletionNoise noise(0.5);
  snn::SpikeRaster in(4, 10);
  in.add(2, 1);
  in.add(5, 3);
  in.add(7, 0);
  Rng rng(3);
  const snn::SpikeRaster out = noise.apply(in, rng);
  // Every surviving event must exist in the input.
  const auto in_events = in.to_events();
  for (const auto& e : out.to_events()) {
    bool found = false;
    for (const auto& orig : in_events) {
      if (orig == e) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_LE(out.total_spikes(), in.total_spikes());
}

TEST(Deletion, ZeroAndOneAreExact) {
  snn::SpikeRaster in = full_raster(10, 10);
  Rng rng(5);
  EXPECT_EQ(DeletionNoise(0.0).apply(in, rng).total_spikes(), 100u);
  EXPECT_EQ(DeletionNoise(1.0).apply(in, rng).total_spikes(), 0u);
}

TEST(Deletion, RejectsInvalidP) {
  EXPECT_THROW(DeletionNoise(-0.1), InvalidArgument);
  EXPECT_THROW(DeletionNoise(1.1), InvalidArgument);
}

TEST(Deletion, NameDescribesP) {
  EXPECT_EQ(DeletionNoise(0.5).name(), "deletion(p=0.50)");
}

TEST(Jitter, PreservesSpikeCountExactly) {
  const JitterNoise noise(2.5);
  const snn::SpikeRaster in = full_raster(20, 30);
  Rng rng(11);
  const snn::SpikeRaster out = noise.apply(in, rng);
  EXPECT_EQ(out.total_spikes(), in.total_spikes());
}

TEST(Jitter, PreservesPerNeuronCounts) {
  const JitterNoise noise(1.5);
  snn::SpikeRaster in(5, 20);
  in.add(3, 2);
  in.add(8, 2);
  in.add(10, 4);
  Rng rng(13);
  const snn::SpikeRaster out = noise.apply(in, rng);
  EXPECT_EQ(out.spikes_of(2), 2u);
  EXPECT_EQ(out.spikes_of(4), 1u);
  EXPECT_EQ(out.spikes_of(0), 0u);
}

TEST(Jitter, ShiftMagnitudesFollowSigma) {
  const double sigma = 1.0;
  const JitterNoise noise(sigma);
  snn::SpikeRaster in(1, 200);
  in.add(100, 0);  // far from the boundary so clamping is negligible
  Rng rng(17);
  double sum_sq = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const snn::SpikeRaster out = noise.apply(in, rng);
    const std::int32_t t = out.first_spike_time(0);
    const double d = static_cast<double>(t) - 100.0;
    sum_sq += d * d;
  }
  // Quantized Gaussian variance ~ sigma^2 + 1/12 (rounding).
  EXPECT_NEAR(std::sqrt(sum_sq / trials), std::sqrt(sigma * sigma + 1.0 / 12.0), 0.1);
}

TEST(Jitter, ClampsIntoWindow) {
  const JitterNoise noise(50.0);  // extreme jitter
  snn::SpikeRaster in(1, 10);
  in.add(0, 0);
  in.add(9, 0);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const snn::SpikeRaster out = noise.apply(in, rng);
    EXPECT_EQ(out.total_spikes(), 2u);  // nothing fell off the window
  }
}

TEST(Jitter, ClampPilesMassAtWindowEdges) {
  // With sigma >> window, almost every shift clamps: the distribution must
  // collapse onto the boundary steps t=0 and t=T-1 (spikes never leave the
  // window, they pile up at its edges).
  const JitterNoise noise(200.0);
  const std::size_t window = 12;
  snn::SpikeRaster in(1, window);
  in.add(6, 0);  // start mid-window
  Rng rng(29);
  std::size_t at_zero = 0;
  std::size_t at_last = 0;
  std::size_t elsewhere = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const snn::SpikeRaster out = noise.apply(in, rng);
    ASSERT_EQ(out.total_spikes(), 1u);
    const std::int32_t t = out.first_spike_time(0);
    if (t == 0) {
      ++at_zero;
    } else if (t == static_cast<std::int32_t>(window) - 1) {
      ++at_last;
    } else {
      ++elsewhere;
    }
  }
  // sigma=200 over a 12-step window: > 95% of shifts clamp, split evenly.
  EXPECT_NEAR(static_cast<double>(at_zero) / trials, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(at_last) / trials, 0.5, 0.05);
  EXPECT_LT(static_cast<double>(elsewhere) / trials, 0.05);
}

TEST(Deletion, PZeroIsExactIdentityAndDrawsNothing) {
  const DeletionNoise noise(0.0);
  snn::SpikeRaster in(4, 10);
  in.add(2, 1);
  in.add(2, 3);
  in.add(7, 0);
  Rng rng(31);
  // Events (including within-step order) are untouched...
  EXPECT_EQ(noise.apply(in, rng).to_events(), in.to_events());
  // ...and the rng was never consumed: the next draw matches a fresh rng.
  Rng fresh(31);
  EXPECT_EQ(rng(), fresh());
}

TEST(Deletion, POneDeletesEverySpike) {
  const DeletionNoise noise(1.0);
  const snn::SpikeRaster in = full_raster(6, 9);
  Rng rng(37);
  const snn::SpikeRaster out = noise.apply(in, rng);
  EXPECT_EQ(out.total_spikes(), 0u);
  EXPECT_EQ(out.num_neurons(), in.num_neurons());
  EXPECT_EQ(out.window(), in.window());
}

TEST(Jitter, ZeroSigmaIsIdentity) {
  snn::SpikeRaster in(2, 5);
  in.add(3, 1);
  Rng rng(23);
  const snn::SpikeRaster out = JitterNoise(0.0).apply(in, rng);
  EXPECT_EQ(out.to_events(), in.to_events());
}

TEST(Jitter, RejectsNegativeSigma) {
  EXPECT_THROW(JitterNoise(-1.0), InvalidArgument);
}

TEST(Jitter, RejectsNonFiniteSigma) {
  EXPECT_THROW(JitterNoise(std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(JitterNoise(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
}

// Every shift of a sigma this large saturates, so 64 spikes at mid-window
// must split between the two edge steps. A bare std::lround returns
// LONG_MIN once |sigma * z| >= 2^63 (x86-64), which sent every spike to
// step 0.
TEST(Jitter, HugeSigmaSplitsBetweenBothEnds) {
  const std::size_t window = 16;
  snn::SpikeRaster in(64, window);
  for (std::uint32_t n = 0; n < 64; ++n) {
    in.add(8, n);
  }
  const JitterNoise noise(1e300);
  Rng rng_raster(5);
  const snn::SpikeRaster via_raster = noise.apply(in, rng_raster);
  EXPECT_EQ(via_raster.at(0).size() + via_raster.at(window - 1).size(), 64u);
  EXPECT_GT(via_raster.at(0).size(), 0u);
  EXPECT_GT(via_raster.at(window - 1).size(), 0u);
  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    snn::EventBuffer buf;
    snn::EventSortScratch scratch;
    buf.assign_from(in, scratch);
    Rng rng(5);
    noise.apply_inplace(buf, scratch, rng);
    EXPECT_EQ(buf.step_count(0) + buf.step_count(window - 1), 64u) << table->isa;
    EXPECT_EQ(buf.to_raster().to_events(), via_raster.to_events())
        << table->isa;
  }
}

// The in-place re-bucket against the raster reference on a dense train
// whose shifts pile events onto both window edges and onto shared steps:
// sigma 6 over a 16-step window, so every step sends events past step 0
// and past step 15, on every table.
TEST(Jitter, InplaceRebucketMatchesRasterWithClampingAtBothEnds) {
  const std::size_t window = 16;
  snn::SpikeRaster in(300, window);
  Rng fill(17);
  for (std::size_t t = 0; t < window; ++t) {
    for (std::uint32_t n = 0; n < 300; ++n) {
      if (fill.bernoulli(0.4)) {
        in.add(t, n);
      }
    }
  }
  const JitterNoise noise(6.0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng_raster(seed);
    const snn::SpikeRaster want = noise.apply(in, rng_raster);
    ASSERT_GT(want.at(0).size(), in.at(0).size());
    ASSERT_GT(want.at(window - 1).size(), in.at(window - 1).size());
    for (const simd::KernelDispatch* table : simd::runnable_tables()) {
      const simd::ScopedKernelOverride pin(*table);
      snn::EventBuffer buf;
      snn::EventSortScratch scratch;
      buf.assign_from(in, scratch);
      Rng rng(seed);
      noise.apply_inplace(buf, scratch, rng);
      for (std::size_t t = 0; t < window; ++t) {
        const snn::EventBuffer::StepSpan span = buf.step(t);
        EXPECT_EQ(std::vector<std::uint32_t>(span.ids, span.ids + span.count),
                  want.at(t))
            << table->isa << " seed " << seed << " step " << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The batched draw against the per-call reference: shifts, and the stream
// afterwards (cache presence, cached value, next raw draw), on every table.

void expect_same_stream(Rng& got, Rng& want, const std::string& where) {
  double z_got = 0.0;
  double z_want = 0.0;
  const bool cached_got = got.take_cached_normal(z_got);
  const bool cached_want = want.take_cached_normal(z_want);
  ASSERT_EQ(cached_got, cached_want) << where;
  if (cached_want) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(z_got),
              std::bit_cast<std::uint64_t>(z_want))
        << where;
  }
  EXPECT_EQ(got(), want()) << where;
}

TEST(JitterBatchedDraw, MatchesPerCallNormalsOnEveryTable) {
  const std::int32_t limit = 1 << 30;  // no saturation at these sigmas
  aligned_vector<double> uniforms;
  std::vector<std::int32_t> got;
  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    for (const double sigma : {0.5, 1.0, 2.0, 3.0, 50.0, 1e4}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (const std::size_t n : {0u, 1u, 7u, 8u, 4001u}) {
          for (const bool precached : {false, true}) {
            const std::string where =
                std::string(table->isa) + " sigma " + std::to_string(sigma) +
                " seed " + std::to_string(seed) + " n " + std::to_string(n) +
                (precached ? " precached" : "");
            Rng batched(seed);
            Rng reference(seed);
            if (precached) {
              batched.normal();
              reference.normal();
            }
            got.assign(n, -7);
            draw_jitter_shifts(batched, sigma, limit, n, got.data(), uniforms);
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < n; ++i) {
              const long want = std::lround(reference.normal(0.0, sigma));
              mismatches += got[i] != want ? 1 : 0;
            }
            EXPECT_EQ(mismatches, 0u) << where;
            expect_same_stream(batched, reference, where);
          }
        }
      }
    }
  }
}

TEST(JitterBatchedDraw, EmptyTrainWithCachedNormalDrawsNothing) {
  const JitterNoise noise(2.0);
  snn::EventBuffer buf;
  snn::EventSortScratch scratch;
  buf.reset(4, 10);
  buf.finalize(scratch);
  Rng rng(61);
  Rng untouched(61);
  rng.normal();
  untouched.normal();
  noise.apply_inplace(buf, scratch, rng);
  EXPECT_TRUE(buf.empty());
  expect_same_stream(rng, untouched, "empty train");
}

TEST(Composite, AppliesInOrder) {
  std::vector<snn::NoiseModelPtr> models;
  models.push_back(make_deletion(0.5));
  models.push_back(make_jitter(1.0));
  const CompositeNoise composite(std::move(models));
  const snn::SpikeRaster in = full_raster(20, 20);
  Rng rng(29);
  const snn::SpikeRaster out = composite.apply(in, rng);
  EXPECT_LT(out.total_spikes(), in.total_spikes());
  EXPECT_NEAR(static_cast<double>(out.total_spikes()), 200.0, 60.0);
  EXPECT_NE(composite.name().find("deletion"), std::string::npos);
  EXPECT_NE(composite.name().find("jitter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CompositeNoise ordering contract (see the class comment in noise/noise.h):
// member order is significant, and the raster and in-place paths must agree
// for stacks of any depth.

snn::NoiseModelPtr make_composite(
    std::vector<snn::NoiseModelPtr> models) {
  return std::make_unique<CompositeNoise>(std::move(models));
}

TEST(CompositeOrdering, DeletionThenJitterDiffersFromJitterThenDeletion) {
  const snn::SpikeRaster in = full_raster(12, 24);

  std::vector<snn::NoiseModelPtr> dj;
  dj.push_back(make_deletion(0.5));
  dj.push_back(make_jitter(2.0));
  std::vector<snn::NoiseModelPtr> jd;
  jd.push_back(make_jitter(2.0));
  jd.push_back(make_deletion(0.5));
  const CompositeNoise del_jit(std::move(dj));
  const CompositeNoise jit_del(std::move(jd));

  Rng rng_a(71);
  Rng rng_b(71);
  const auto a = del_jit.apply(in, rng_a).to_events();
  const auto b = jit_del.apply(in, rng_b).to_events();
  // Same seed, same members, opposite order: the corrupted trains differ --
  // the first stage changes both which events reach the second stage and
  // what the second stage draws from the shared rng.
  EXPECT_NE(a, b);
  // name() reports members in application order.
  const std::string dj_name = del_jit.name();
  const std::string jd_name = jit_del.name();
  EXPECT_LT(dj_name.find("deletion"), dj_name.find("jitter"));
  EXPECT_LT(jd_name.find("jitter"), jd_name.find("deletion"));
}

/// Applies `noise` to the same input via the raster path and the in-place
/// event-buffer path with identical seeds; both must produce the same train.
void expect_inplace_matches_raster(const snn::NoiseModel& noise,
                                   std::uint64_t seed) {
  const snn::SpikeRaster in = full_raster(10, 18);
  Rng rng_raster(seed);
  const snn::SpikeRaster via_raster = noise.apply(in, rng_raster);

  snn::EventBuffer buf;
  snn::EventSortScratch scratch;
  buf.assign_from(in, scratch);
  Rng rng_events(seed);
  noise.apply_inplace(buf, scratch, rng_events);
  EXPECT_EQ(buf.to_raster().to_events(), via_raster.to_events())
      << noise.name() << " seed " << seed;
}

TEST(CompositeOrdering, InplaceMatchesRasterForDepth3Stacks) {
  for (const std::uint64_t seed : {7ull, 1234ull, 0xC0FFEEull}) {
    std::vector<snn::NoiseModelPtr> stack3;
    stack3.push_back(make_deletion(0.3));
    stack3.push_back(make_jitter(1.5));
    stack3.push_back(make_deletion(0.2));
    expect_inplace_matches_raster(*make_composite(std::move(stack3)), seed);

    std::vector<snn::NoiseModelPtr> stack4;
    stack4.push_back(make_jitter(1.0));
    stack4.push_back(make_deletion(0.4));
    stack4.push_back(make_jitter(0.5));
    stack4.push_back(make_deletion(0.1));
    expect_inplace_matches_raster(*make_composite(std::move(stack4)), seed);
  }
}

TEST(CompositeOrdering, NestedCompositeMatchesFlatStack) {
  // composite[a + composite[b + c]] == composite[a + b + c]: composition is
  // associative because each member only sees the previous output and the
  // shared rng.
  const snn::SpikeRaster in = full_raster(8, 16);
  std::vector<snn::NoiseModelPtr> inner;
  inner.push_back(make_jitter(1.2));
  inner.push_back(make_deletion(0.25));
  std::vector<snn::NoiseModelPtr> nested;
  nested.push_back(make_deletion(0.3));
  nested.push_back(make_composite(std::move(inner)));
  std::vector<snn::NoiseModelPtr> flat;
  flat.push_back(make_deletion(0.3));
  flat.push_back(make_jitter(1.2));
  flat.push_back(make_deletion(0.25));

  Rng rng_a(99);
  Rng rng_b(99);
  EXPECT_EQ(make_composite(std::move(nested))->apply(in, rng_a).to_events(),
            make_composite(std::move(flat))->apply(in, rng_b).to_events());
}

TEST(Composite, FactoryHelper) {
  const auto n = make_deletion_jitter(0.2, 0.5);
  snn::SpikeRaster in = full_raster(5, 5);
  Rng rng(31);
  EXPECT_LE(n->apply(in, rng).total_spikes(), 25u);
}

TEST(NoNoise, IsIdentity) {
  const NoNoise n;
  snn::SpikeRaster in(2, 4);
  in.add(1, 0);
  Rng rng(37);
  EXPECT_EQ(n.apply(in, rng).to_events(), in.to_events());
  EXPECT_EQ(n.name(), "clean");
}

TEST(Noise, DeterministicGivenSeed) {
  const DeletionNoise noise(0.5);
  const snn::SpikeRaster in = full_raster(10, 10);
  Rng rng1(41);
  Rng rng2(41);
  EXPECT_EQ(noise.apply(in, rng1).to_events(), noise.apply(in, rng2).to_events());
}

TEST(DeviceProfile, CatalogIsOrderedByHarshness) {
  const auto& catalog = device_catalog();
  ASSERT_GE(catalog.size(), 3u);
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_GE(catalog[i].deletion_p, catalog[i - 1].deletion_p);
    EXPECT_GE(catalog[i].jitter_sigma, catalog[i - 1].jitter_sigma);
  }
}

TEST(DeviceProfile, FindAndMaterialize) {
  const DeviceProfile& d = find_device("memristive-early");
  EXPECT_GT(d.deletion_p, 0.0);
  const auto noise = d.make_noise();
  snn::SpikeRaster in = full_raster(10, 10);
  Rng rng(43);
  EXPECT_LT(noise->apply(in, rng).total_spikes(), 100u);
  EXPECT_THROW(find_device("no-such-device"), InvalidArgument);
}

TEST(DeviceProfile, CleanDeviceIsIdentity) {
  const DeviceProfile& d = find_device("digital-cmos");
  const auto noise = d.make_noise();
  snn::SpikeRaster in = full_raster(4, 4);
  Rng rng(47);
  EXPECT_EQ(noise->apply(in, rng).total_spikes(), 16u);
}

}  // namespace
}  // namespace tsnn::noise
