#include "coding/ttfs.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

TtfsScheme::TtfsScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.tau > 0.0f, "ttfs tau must be positive");
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "ttfs threshold must be positive");
  TSNN_CHECK_MSG(params_.burst_duration >= 1, "burst duration must be >= 1");
  double z_hat = 0.0;
  for (std::size_t j = 0; j < params_.burst_duration; ++j) {
    z_hat += std::exp(-static_cast<double>(j) / params_.tau);
  }
  kernel_sum_scale_ = static_cast<float>(1.0 / z_hat);
}

std::string TtfsScheme::name() const {
  if (params_.burst_duration > 1) {
    return "ttas(" + std::to_string(params_.burst_duration) + ")";
  }
  return "ttfs";
}

float TtfsScheme::kernel(std::int64_t t) const {
  return std::exp(-static_cast<float>(t) / params_.tau);
}

std::int64_t TtfsScheme::encode_time(float a) const {
  if (a < min_activation()) {
    return -1;
  }
  const auto window = static_cast<std::int64_t>(params_.window);
  auto t = static_cast<std::int64_t>(
      std::lround(-params_.tau * std::log(std::max(a, 1e-20f))));
  if (t < 0) {
    t = 0;  // a > 1 saturates at the earliest slot
  }
  if (t >= window) {
    t = window - 1;
  }
  return t;
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
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t1 = encode_time(a[i]);
    if (t1 < 0) {
      continue;
    }
    ids[m] = static_cast<std::uint32_t>(i);
    first[m++] = static_cast<std::int32_t>(t1);
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

void TtfsScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                            LayerRole role, std::size_t t, snn::StageState& st,
                            EventBuffer& out) const {
  // Charge phase: arrival order is irrelevant in the layered-window regime
  // -- the full input window is integrated before any firing decision
  // (end_layer). Serves TTFS and TTAS alike (TTAS only widens the bursts).
  static_cast<void>(out);
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  const float m =
      base_in * kernel_sum_scale_ * kernel(static_cast<std::int64_t>(t));
  snn::propagate_step(in, t, m, syn, st.batch, st.u.data());
}

void TtfsScheme::end_layer(const EventBuffer& in, const SynapseTopology& syn,
                           LayerRole role, snn::StageState& st,
                           EventBuffer& out) const {
  static_cast<void>(in);
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  const float theta = params_.threshold;
  const float* u = st.u.data();
  const snn::AccumLayout layout = syn.accum_layout();
  const auto window = static_cast<std::int64_t>(params_.window);
  // Fire phase: u >= theta*exp(-t/tau)  <=>  t >= tau*ln(theta/u). The
  // dynamic threshold floor is theta*exp(-(T-1)/tau); below it (including
  // all u <= 0) the neuron stays silent, which implements ReLU.
  // The floor comparison is a collect-only threshold scan (no subtract);
  // the per-candidate log/round stays scalar but now runs only over the
  // typically sparse survivor list.
  const float floor = theta * kernel(window - 1);
  simd::ThresholdCtx scan;
  scan.u = st.u.data();
  scan.rows = layout.rows;
  scan.cols = layout.cols;
  scan.threshold = floor;
  scan.subtract = false;
  scan.fired = st.fired_scratch(out_n);
  const std::size_t nf = simd::kernels().threshold_fire(scan);
  st.sort.first.resize(nf);
  std::int32_t* first = st.sort.first.data();
  for (std::size_t f = 0; f < nf; ++f) {
    const float uj = u[layout.slot(scan.fired[f])];
    auto t1 = static_cast<std::int64_t>(
        std::lround(params_.tau * std::log(theta / uj)));
    if (t1 < 0) {
      t1 = 0;  // over-threshold activations saturate at the earliest slot
    }
    if (t1 >= window) {
      t1 = window - 1;
    }
    first[f] = static_cast<std::int32_t>(t1);
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
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  const float m =
      base_in * kernel_sum_scale_ * kernel(static_cast<std::int64_t>(t));
  snn::propagate_step(in, t, m, syn, st.batch, st.u.data());
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
