// Scheme-specific behavior: firing rules, layer transport, and the
// coding-specific mechanics the paper's analysis relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "coding/burst.h"
#include "coding/phase.h"
#include "coding/rate.h"
#include "coding/registry.h"
#include "coding/ttfs.h"
#include "common/rng.h"
#include "snn/topology.h"

namespace tsnn::coding {
namespace {

using snn::Coding;
using snn::CodingParams;
using snn::LayerRole;
using snn::SpikeRaster;

/// Identity dense synapse of size n.
snn::DenseTopology identity(std::size_t n) {
  Tensor w{Shape{n, n}};
  for (std::size_t i = 0; i < n; ++i) {
    w(i, i) = 1.0f;
  }
  return snn::DenseTopology{w};
}

Tensor random_activations(std::size_t n, std::uint64_t seed, double lo = 0.05,
                          double hi = 0.7) {
  Tensor a{Shape{n}};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return a;
}

/// Transport property: encode -> hidden layer through identity weights ->
/// readout through identity weights must approximately reproduce the input
/// activations for every coding scheme.
void check_identity_transport(const snn::CodingScheme& scheme, double tol) {
  const std::size_t n = 24;
  const Tensor a = random_activations(n, 31);
  const auto syn = identity(n);
  const SpikeRaster hidden =
      scheme.run_layer(scheme.encode(a), syn, LayerRole::kFirstHidden);
  const Tensor out = scheme.readout(hidden, syn, LayerRole::kHidden);
  // The readout accumulates total delivered charge; normalize to activation
  // units using a reference encoding of value 1... instead compare ratios:
  // transport of 2x activation should read out ~2x. Check linear agreement
  // against the input through a least-squares gain.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += out[i] * a[i];
    den += a[i] * a[i];
  }
  const double gain = num / den;
  ASSERT_GT(gain, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out[i] / gain, a[i], tol) << scheme.name() << " neuron " << i;
  }
}

TEST(RateScheme, EncodeCountMatchesActivation) {
  const auto scheme = make_scheme(Coding::kRate);
  Tensor a{Shape{3}, {0.25f, 0.5f, 1.0f}};
  const SpikeRaster r = scheme->encode(a);
  const std::size_t window = scheme->params().window;
  EXPECT_NEAR(static_cast<double>(r.spikes_of(0)), 0.25 * window, 1.0);
  EXPECT_NEAR(static_cast<double>(r.spikes_of(1)), 0.5 * window, 1.0);
  EXPECT_EQ(r.spikes_of(2), window);  // rate saturates at one spike per step
}

TEST(RateScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kRate), 0.05);
}

TEST(RateScheme, NegativePotentialStaysSilent) {
  const auto scheme = make_scheme(Coding::kRate);
  Tensor w{Shape{1, 1}, {-1.0f}};  // inhibitory synapse
  snn::DenseTopology syn{w};
  Tensor a{Shape{1}, {0.8f}};
  const SpikeRaster out =
      scheme->run_layer(scheme->encode(a), syn, LayerRole::kFirstHidden);
  EXPECT_EQ(out.total_spikes(), 0u);  // ReLU behavior
}

TEST(PhaseScheme, WeightsFollowBinaryLadder) {
  const auto scheme = std::make_unique<PhaseScheme>(default_params(Coding::kPhase));
  EXPECT_FLOAT_EQ(scheme->phase_weight(0), 0.5f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(1), 0.25f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(7), 1.0f / 256.0f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(8), 0.5f);  // periodic
}

TEST(PhaseScheme, EncodesBinaryExpansion) {
  const auto scheme = std::make_unique<PhaseScheme>(default_params(Coding::kPhase));
  Tensor a{Shape{1}, {0.75f}};  // binary 0.11 -> spikes at phases 0 and 1
  const SpikeRaster r = scheme->encode(a);
  EXPECT_EQ(r.at(0).size(), 1u);
  EXPECT_EQ(r.at(1).size(), 1u);
  EXPECT_EQ(r.at(2).size(), 0u);
}

TEST(PhaseScheme, RejectsBadWindow) {
  CodingParams p = default_params(Coding::kPhase);
  p.window = 63;  // not a multiple of the period
  EXPECT_THROW(PhaseScheme{p}, InvalidArgument);
}

TEST(PhaseScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kPhase), 0.05);
}

TEST(BurstScheme, GainLadderAndCap) {
  const auto scheme = std::make_unique<BurstScheme>(default_params(Coding::kBurst));
  EXPECT_EQ(scheme->burst_gain(0), 1.0f);
  EXPECT_EQ(scheme->burst_gain(1), 2.0f);
  EXPECT_EQ(scheme->burst_gain(4), 16.0f);
  EXPECT_EQ(scheme->burst_gain(9), 16.0f);  // capped

  // Every rung, bitwise against std::pow(g, float(min(k, cap))): a table
  // that drifts from it in the last bit fails here. 1.1 is not a power of
  // two or a short binary fraction, so its powers round; the reference
  // reads g back from the scheme, which the compiler cannot fold.
  for (const auto& [g, cap] : {std::pair{2.0f, std::size_t{4}},
                               std::pair{1.5f, std::size_t{7}},
                               std::pair{1.1f, std::size_t{12}}}) {
    CodingParams p = default_params(Coding::kBurst);
    p.burst_gain = g;
    p.burst_cap = cap;
    const BurstScheme ladder(p);
    const float gain = ladder.params().burst_gain;
    for (std::size_t k = 0; k <= cap + 3; ++k) {
      const float want = std::pow(gain, static_cast<float>(std::min(k, cap)));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ladder.burst_gain(k)),
                std::bit_cast<std::uint32_t>(want))
          << "g=" << g << " cap=" << cap << " k=" << k;
    }
  }
}

TEST(BurstScheme, RejectsCapBeyondBound) {
  // As an int exponent, 2^32 would narrow to 0 and make every quantum 1.
  CodingParams p = default_params(Coding::kBurst);
  p.burst_cap = std::size_t{1} << 32;
  EXPECT_THROW(BurstScheme{p}, InvalidArgument);
  p.burst_cap = BurstScheme::kMaxBurstCap + 1;
  EXPECT_THROW(BurstScheme{p}, InvalidArgument);
  p.burst_cap = BurstScheme::kMaxBurstCap;
  EXPECT_NO_THROW(BurstScheme{p});
}

TEST(BurstScheme, HighActivationUsesFewerSpikesThanRate) {
  Tensor a{Shape{8}};
  for (std::size_t i = 0; i < 8; ++i) {
    a[i] = 0.9f;
  }
  const std::size_t burst = make_scheme(Coding::kBurst)->encode(a).total_spikes();
  const std::size_t rate = make_scheme(Coding::kRate)->encode(a).total_spikes();
  EXPECT_LT(burst, rate);
}

TEST(BurstScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kBurst), 0.08);
}

TEST(TtfsScheme, EncodeTimeIsLogarithmic) {
  const auto scheme = std::make_unique<TtfsScheme>(default_params(Coding::kTtfs));
  const float tau = scheme->params().tau;
  EXPECT_EQ(scheme->encode_time(1.0f), 0);
  // a = e^{-1} should land at t = tau.
  EXPECT_EQ(scheme->encode_time(std::exp(-1.0f)), std::lround(tau));
  // Below the representable floor: no spike.
  EXPECT_EQ(scheme->encode_time(scheme->min_activation() * 0.5f), -1);
  // Above 1 saturates at slot 0.
  EXPECT_EQ(scheme->encode_time(1.5f), 0);
}

/// The float expressions the spike-time tables stand for: the encoder's
/// clamp(lroundf(-tau logf(a)), 0, T-1) above min_activation(), and the
/// fire phase's clamp(lroundf(tau logf(theta / u)), 0, T-1) above the
/// floor theta * min_activation(); -1 below either.
std::int64_t clamp_time(long t, std::size_t window) {
  return std::clamp<std::int64_t>(t, 0, static_cast<std::int64_t>(window) - 1);
}

std::int64_t encode_time_expr(const TtfsScheme& s, float a) {
  if (a < s.min_activation()) {
    return -1;
  }
  const float tau = s.params().tau;
  return clamp_time(std::lround(-tau * std::log(std::max(a, 1e-20f))),
                    s.params().window);
}

std::int64_t fire_time_expr(const TtfsScheme& s, float u) {
  const float theta = s.params().threshold;
  if (!(u >= theta * s.min_activation())) {
    return -1;
  }
  const float tau = s.params().tau;
  return clamp_time(std::lround(tau * std::log(theta / u)), s.params().window);
}

float step_floats(float x, std::int32_t n) {
  return std::bit_cast<float>(std::bit_cast<std::int32_t>(x) + n);
}

// Every float within 64 ulps (and well past: 256) of each rounding boundary
// k + 1/2 of both expressions, then a million random floats, at (tau,
// theta, T) = (3, 0.8, 64) and at tau = 2, 4, 6, 8: the tables give the
// expressions' integers. The boundaries are located in double; the float
// expressions cross within a few ulps of them.
TEST(TtfsScheme, FireAndEncodeTimesEqualTheFloatExpressions) {
  for (const float tau : {3.0f, 2.0f, 4.0f, 6.0f, 8.0f}) {
    CodingParams params = default_params(Coding::kTtfs);
    params.tau = tau;
    params.threshold = 0.8f;
    params.window = 64;
    const TtfsScheme scheme(params);
    std::size_t checked = 0;
    for (int k = 0; k + 1 < 64; ++k) {
      const double x = std::exp(-(k + 0.5) / tau);
      const auto a0 = static_cast<float>(x);
      const auto u0 = static_cast<float>(0.8 * x);
      for (std::int32_t d = -256; d <= 256; ++d) {
        const float a = step_floats(a0, d);
        const float u = step_floats(u0, d);
        ASSERT_EQ(scheme.encode_time(a), encode_time_expr(scheme, a))
            << "tau " << tau << " boundary " << k << " a " << a;
        ASSERT_EQ(scheme.fire_time(u), fire_time_expr(scheme, u))
            << "tau " << tau << " boundary " << k << " u " << u;
        ++checked;
      }
    }
    EXPECT_EQ(checked, 63u * 513u);
    Rng rng(static_cast<std::uint64_t>(tau * 1000));
    for (int i = 0; i < 1000000; ++i) {
      // Uniform in [0, 1.25), and uniform over the bit patterns of the
      // positive floats below 4 (every binade equally).
      const auto a = static_cast<float>(rng.uniform(0.0, 1.25));
      const float b = std::bit_cast<float>(static_cast<std::int32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(
              std::bit_cast<std::int32_t>(4.0f)))));
      for (const float x : {a, b}) {
        ASSERT_EQ(scheme.encode_time(x), encode_time_expr(scheme, x))
            << "tau " << tau << " a " << x;
        ASSERT_EQ(scheme.fire_time(x), fire_time_expr(scheme, x))
            << "tau " << tau << " u " << x;
      }
    }
  }
}

// A tau small enough that the floor theta * exp(-(T-1)/tau) underflows to
// 0: theta / u overflows for tiny potentials and the fire time wraps to 0
// there, which the table leaves to the expression.
TEST(TtfsScheme, SpikeTimesWithAnUnderflowingFloor) {
  CodingParams params = default_params(Coding::kTtfs);
  params.tau = 0.25f;
  params.threshold = 0.8f;
  params.window = 64;
  const TtfsScheme scheme(params);
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    const float x = std::bit_cast<float>(static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(
            std::bit_cast<std::int32_t>(4.0f)))));
    ASSERT_EQ(scheme.encode_time(x), encode_time_expr(scheme, x)) << x;
    ASSERT_EQ(scheme.fire_time(x), fire_time_expr(scheme, x)) << x;
  }
  for (const float x : {0.0f, 1e-45f, 1e-39f, 1e-30f, 1e-20f, 1e-19f}) {
    EXPECT_EQ(scheme.encode_time(x), encode_time_expr(scheme, x)) << x;
    EXPECT_EQ(scheme.fire_time(x), fire_time_expr(scheme, x)) << x;
  }
}

TEST(TtfsScheme, SpikeTimesOfSpecialFloats) {
  const TtfsScheme scheme(default_params(Coding::kTtfs));
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float x : {0.0f, -0.0f, -1.0f, -inf, 1e-45f, 1.0f, 1.5f, 3e38f,
                        inf, scheme.min_activation(),
                        std::nextafter(scheme.min_activation(), 0.0f)}) {
    EXPECT_EQ(scheme.encode_time(x), encode_time_expr(scheme, x)) << x;
    EXPECT_EQ(scheme.fire_time(x), fire_time_expr(scheme, x)) << x;
  }
  // A NaN activation takes the expression (its lround saturates to 0); a
  // NaN potential never passes the floor scan.
  EXPECT_EQ(scheme.encode_time(nan), 0);
  EXPECT_EQ(scheme.fire_time(nan), -1);
}

TEST(TtfsScheme, OneSpikePerActiveNeuron) {
  const auto scheme = make_scheme(Coding::kTtfs);
  const Tensor a = random_activations(16, 5);
  const SpikeRaster r = scheme->encode(a);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(r.spikes_of(i), 1u);
  }
}

TEST(TtfsScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kTtfs), 0.15);
}

TEST(TtfsScheme, LayerEmitsEarlierForLargerPotential) {
  const auto scheme = make_scheme(Coding::kTtfs);
  const auto syn = identity(2);
  Tensor a{Shape{2}, {0.9f, 0.2f}};
  const SpikeRaster out =
      scheme->run_layer(scheme->encode(a), syn, LayerRole::kFirstHidden);
  const std::int32_t t_big = out.first_spike_time(0);
  const std::int32_t t_small = out.first_spike_time(1);
  ASSERT_GE(t_big, 0);
  ASSERT_GE(t_small, 0);
  EXPECT_LT(t_big, t_small);
}

TEST(TtfsScheme, NegativePotentialSilent) {
  const auto scheme = make_scheme(Coding::kTtfs);
  Tensor w{Shape{1, 1}, {-0.5f}};
  snn::DenseTopology syn{w};
  Tensor a{Shape{1}, {0.9f}};
  const SpikeRaster out =
      scheme->run_layer(scheme->encode(a), syn, LayerRole::kFirstHidden);
  EXPECT_EQ(out.total_spikes(), 0u);
}

TEST(TtfsScheme, RasterWindowExtendsWithBurst) {
  CodingParams p = default_params(Coding::kTtas);
  p.burst_duration = 5;
  const TtfsScheme scheme(p);
  EXPECT_EQ(scheme.raster_window(), p.window + 4);
}

TEST(TtfsScheme, KernelSumScaleNormalizesBurst) {
  CodingParams p = default_params(Coding::kTtas);
  p.burst_duration = 4;
  const TtfsScheme scheme(p);
  double z_hat = 0.0;
  for (int j = 0; j < 4; ++j) {
    z_hat += std::exp(-j / p.tau);
  }
  EXPECT_NEAR(scheme.kernel_sum_scale(), 1.0 / z_hat, 1e-6);
  // Plain TTFS has no burst normalization.
  const TtfsScheme plain(default_params(Coding::kTtfs));
  EXPECT_FLOAT_EQ(plain.kernel_sum_scale(), 1.0f);
}

TEST(Registry, BaselineCodingListMatchesPaperFigures) {
  const auto& codings = baseline_codings();
  ASSERT_EQ(codings.size(), 4u);
  EXPECT_EQ(codings[0], Coding::kRate);
  EXPECT_EQ(codings[3], Coding::kTtfs);
}

TEST(Registry, MakeSchemeCoversAllCodings) {
  for (const Coding c : {Coding::kRate, Coding::kPhase, Coding::kBurst,
                         Coding::kTtfs, Coding::kTtas}) {
    EXPECT_NE(make_scheme(c), nullptr);
  }
}

}  // namespace
}  // namespace tsnn::coding
