#include "coding/ttfs.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

namespace {

std::int32_t float_bits(float x) { return std::bit_cast<std::int32_t>(x); }

}  // namespace

template <typename Exact>
SpikeTimeTable::SpikeTimeTable(float lo, std::int32_t last, float base,
                               float tau, const Exact& exact)
    : lo_(lo),
      from_(std::max(lo, kFrom)),
      last_(last),
      bp_(static_cast<std::size_t>(last) + 2) {
  // bp[k] by bisection on the bit patterns of [from_, FLT_MAX]; f(FLT_MAX)
  // is 0 for both expressions, and bp[k] <= bp[k - 1] bounds the search.
  // Sentinels above and below (bp[-1] and bp[last]) end every walk.
  bp_.front() = std::numeric_limits<std::int32_t>::max();
  bp_.back() = std::numeric_limits<std::int32_t>::min();
  std::int32_t* bp = bp_.data() + 1;
  const std::int32_t from_bits = float_bits(from_);
  std::int32_t hi = float_bits(FLT_MAX);
  for (std::int32_t k = 0; k < last; ++k) {
    std::int32_t below = from_bits;  // f > k here, unless from_ is <= k
    if (exact(from_) <= k) {
      hi = from_bits;
    } else {
      while (hi - below > 1) {
        const std::int32_t mid = below + (hi - below) / 2;
        if (exact(std::bit_cast<float>(mid)) <= k) {
          hi = mid;
        } else {
          below = mid;
        }
      }
    }
    bp[k] = hi;
  }
  // bits(x) * 2^-23 - 127 is log2(x) minus up to 0.086; centre the error,
  // so f(x) ~ tau * ln(base / x) is guess0 - guess1 * bits(x) within
  // 0.03 tau steps.
  constexpr double kLn2 = std::numbers::ln2;
  guess1_ = static_cast<float>(tau * kLn2 * 0x1p-23);
  guess0_ = static_cast<float>(tau * (std::log(static_cast<double>(base)) +
                                      kLn2 * (127.0 - 0.043)));
}

template <typename Exact>
std::int32_t SpikeTimeTable::operator()(float x, const Exact& exact) const {
  if (!(x >= from_)) {
    return x < lo_ ? -1 : exact(x);
  }
  const std::int32_t xb = float_bits(x);
  const float g = guess0_ - guess1_ * static_cast<float>(xb);
  std::int32_t t = g <= 0.0f ? 0
                   : g >= static_cast<float>(last_)
                       ? last_
                       : static_cast<std::int32_t>(g + 0.5f);
  // The guess is rarely off by more than one: one branch-free step each
  // way, then walks that the sentinels end.
  const std::int32_t* bp = bp_.data() + 1;
  t -= xb >= bp[t - 1] ? 1 : 0;
  t += xb < bp[t] ? 1 : 0;
  while (xb >= bp[t - 1]) {
    --t;
  }
  while (xb < bp[t]) {
    ++t;
  }
  // Now bp[t] <= x < bp[t - 1]. Near either breakpoint, the expression.
  if (std::int64_t{xb} - bp[t] <= kGuard ||
      std::int64_t{bp[t - 1]} - xb <= kGuard) {
    return exact(x);
  }
  return t;
}

TtfsScheme::TtfsScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.tau > 0.0f, "ttfs tau must be positive");
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "ttfs threshold must be positive");
  TSNN_CHECK_MSG(params_.burst_duration >= 1, "burst duration must be >= 1");
  double z_hat = 0.0;
  for (std::size_t j = 0; j < params_.burst_duration; ++j) {
    z_hat += std::exp(-static_cast<double>(j) / params_.tau);
  }
  kernel_sum_scale_ = static_cast<float>(1.0 / z_hat);
  // The tables hold the float expressions the hot paths used to evaluate
  // per step and per neuron, so every value is bit-identical.
  const std::size_t steps = raster_window();
  kernel_.resize(steps);
  charge_[0].resize(steps);
  charge_[1].resize(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    kernel_[t] = std::exp(-static_cast<float>(t) / params_.tau);
    charge_[0][t] = 1.0f * kernel_sum_scale_ * kernel_[t];
    charge_[1][t] = params_.threshold * kernel_sum_scale_ * kernel_[t];
  }
  const auto last =
      static_cast<std::int32_t>(std::max<std::size_t>(params_.window, 1)) - 1;
  encode_times_ = SpikeTimeTable(
      min_activation(), last, 1.0f, params_.tau,
      [this](float a) { return encode_time_exact(a); });
  fire_times_ = SpikeTimeTable(
      params_.threshold * min_activation(), last, params_.threshold,
      params_.tau, [this](float u) { return fire_time_exact(u); });
}

std::string TtfsScheme::name() const {
  if (params_.burst_duration > 1) {
    return "ttas(" + std::to_string(params_.burst_duration) + ")";
  }
  return "ttfs";
}

float TtfsScheme::kernel(std::int64_t t) const {
  if (t >= 0 && static_cast<std::size_t>(t) < kernel_.size()) {
    return kernel_[static_cast<std::size_t>(t)];
  }
  return std::exp(-static_cast<float>(t) / params_.tau);
}

float TtfsScheme::charge(LayerRole role, std::size_t t) const {
  const std::vector<float>& table = charge_[role == LayerRole::kFirstHidden ? 0 : 1];
  if (t < table.size()) {
    return table[t];
  }
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  return base_in * kernel_sum_scale_ * kernel(static_cast<std::int64_t>(t));
}

std::int32_t TtfsScheme::encode_time_exact(float a) const {
  const auto window = static_cast<std::int64_t>(params_.window);
  auto t = static_cast<std::int64_t>(
      std::lround(-params_.tau * std::log(std::max(a, 1e-20f))));
  if (t < 0) {
    t = 0;  // a > 1 saturates at the earliest slot
  }
  if (t >= window) {
    t = window - 1;
  }
  return static_cast<std::int32_t>(t);
}

std::int32_t TtfsScheme::fire_time_exact(float u) const {
  const auto window = static_cast<std::int64_t>(params_.window);
  auto t = static_cast<std::int64_t>(
      std::lround(params_.tau * std::log(params_.threshold / u)));
  if (t < 0) {
    t = 0;  // over-threshold activations saturate at the earliest slot
  }
  if (t >= window) {
    t = window - 1;
  }
  return static_cast<std::int32_t>(t);
}

std::int64_t TtfsScheme::encode_time(float a) const {
  return encode_times_(a, [this](float x) { return encode_time_exact(x); });
}

std::int64_t TtfsScheme::fire_time(float u) const {
  if (std::isnan(u)) {
    return -1;  // fails the floor scan's u >= floor, like any silent neuron
  }
  return fire_times_(u, [this](float x) { return fire_time_exact(x); });
}

void TtfsScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                             EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, raster_window());
  const float* a = activations.data();
  // Each spiking neuron's first step goes to scratch, ids ascending; the
  // bursts are then emitted time-major in one scatter (assign_bursts).
  std::uint32_t* ids = ws.fired_scratch(n);
  ws.sort.first.resize(n);
  std::int32_t* first = ws.sort.first.data();
  const auto exact = [this](float x) { return encode_time_exact(x); };
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t t1 = encode_times_(a[i], exact);
    if (t1 < 0) {
      continue;
    }
    ids[m] = static_cast<std::uint32_t>(i);
    first[m++] = t1;
  }
  out.assign_bursts(first, ids, m, params_.burst_duration, ws.sort);
}

void TtfsScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, snn::StageState& st,
                             EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.potentials(syn.out_size());
  out.reset(syn.out_size(), raster_window());
}

// layer_steps() is 0: end_layer charges the whole window.
void TtfsScheme::step_layer(const EventBuffer&, const SynapseTopology&,
                            LayerRole, std::size_t, snn::StageState&,
                            EventBuffer&) const {}

void TtfsScheme::end_layer(const EventBuffer& in, const SynapseTopology& syn,
                           LayerRole role, snn::StageState& st,
                           EventBuffer& out) const {
  // Charge phase: arrival order is irrelevant in the layered-window regime
  // -- the full input window is integrated before any firing decision --
  // so the whole train goes through one propagate_train call, at the
  // tabulated per-step magnitudes. Serves TTFS and TTAS alike (TTAS only
  // widens the bursts).
  const std::size_t steps = in.window();
  const std::vector<float>& table = charge_[role == LayerRole::kFirstHidden ? 0 : 1];
  std::vector<float> longer;  // only for a train longer than raster_window()
  const float* mag = table.data();
  if (steps > table.size()) {
    longer.resize(steps);
    for (std::size_t t = 0; t < steps; ++t) {
      longer[t] = charge(role, t);
    }
    mag = longer.data();
  }
  float* u = st.u.data();
  syn.propagate_train(in, mag, u);

  const std::size_t out_n = syn.out_size();
  const snn::AccumLayout layout = syn.accum_layout();
  // Fire phase: u >= theta*exp(-t/tau)  <=>  t >= tau*ln(theta/u). The
  // dynamic threshold floor is theta*exp(-(T-1)/tau); below it (including
  // all u <= 0) the neuron stays silent, which implements ReLU.
  // The floor comparison is a collect-only threshold scan (no subtract);
  // the survivors' fire times come from the breakpoint table.
  simd::ThresholdCtx scan;
  scan.u = u;
  scan.rows = layout.rows;
  scan.cols = layout.cols;
  scan.threshold =
      params_.threshold * kernel(static_cast<std::int64_t>(params_.window) - 1);
  scan.subtract = false;
  scan.fired = st.fired_scratch(out_n);
  const std::size_t nf = simd::kernels().threshold_fire(scan);
  st.sort.first.resize(nf);
  std::int32_t* first = st.sort.first.data();
  // Fired ids are canonical and ascending, so neuron j's channel
  // c = j / cols advances by a walk instead of a divide.
  const auto exact = [this](float x) { return fire_time_exact(x); };
  std::size_t c = 0;
  std::size_t c_begin = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t j = scan.fired[f];
    while (j >= c_begin + layout.cols) {
      ++c;
      c_begin += layout.cols;
    }
    first[f] = fire_times_(u[(j - c_begin) * layout.rows + c], exact);
  }
  // Simplified integrate-and-fire-or-burst (paper Eq. 4): burst of
  // burst_duration spikes from t1, then reset to -inf (silent forever) --
  // every burst emitted in fire-scan order through one scatter.
  out.assign_bursts(first, scan.fired, nf, params_.burst_duration, st.sort);
}

void TtfsScheme::begin_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               snn::StageState& st) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.potentials(syn.out_size());
}

void TtfsScheme::step_readout(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, std::size_t t,
                              snn::StageState& st) const {
  snn::propagate_step(in, t, charge(role, t), syn, st.u.data());
}

Tensor TtfsScheme::decode(const snn::SpikeRaster& in) const {
  Tensor out{Shape{in.num_neurons()}};
  for (std::size_t t = 0; t < in.window(); ++t) {
    const float m = kernel_sum_scale_ * kernel(static_cast<std::int64_t>(t));
    for (const std::uint32_t pre : in.at(t)) {
      out[pre] += m;
    }
  }
  return out;
}

}  // namespace tsnn::coding
