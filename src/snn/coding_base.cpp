#include "snn/coding_base.h"

namespace tsnn::snn {

std::string coding_name(Coding coding) {
  switch (coding) {
    case Coding::kRate: return "rate";
    case Coding::kPhase: return "phase";
    case Coding::kBurst: return "burst";
    case Coding::kTtfs: return "ttfs";
    case Coding::kTtas: return "ttas";
  }
  return "unknown";
}

void CodingScheme::run_layer_into(const EventBuffer& in,
                                  const SynapseTopology& syn, LayerRole role,
                                  SimWorkspace& ws, EventBuffer& out) const {
  StageState& st = ws.seq;
  begin_layer(in, syn, role, st, out);
  const std::size_t steps = layer_steps(in.window());
  for (std::size_t t = 0; t < steps; ++t) {
    step_layer(in, syn, role, t, st, out);
  }
  end_layer(in, syn, role, st, out);
}

void CodingScheme::readout_into(const EventBuffer& in,
                                const SynapseTopology& syn, LayerRole role,
                                SimWorkspace& ws, float* logits) const {
  StageState& st = ws.seq;
  begin_readout(in, syn, role, st);
  const std::size_t steps = in.window();
  for (std::size_t t = 0; t < steps; ++t) {
    step_readout(in, syn, role, t, st);
  }
  finish_readout(syn, st, logits);
}

void CodingScheme::end_layer(const EventBuffer& /*in*/,
                             const SynapseTopology& /*syn*/,
                             LayerRole /*role*/, StageState& /*st*/,
                             EventBuffer& out) const {
  out.finalize();
}

void CodingScheme::finish_readout(const SynapseTopology& syn, StageState& st,
                                  float* logits) const {
  const AccumLayout layout = syn.accum_layout();
  const std::size_t n = syn.out_size();
  for (std::size_t j = 0; j < n; ++j) {
    logits[j] = st.u[layout.slot(j)];
  }
}

SpikeRaster CodingScheme::encode(const Tensor& activations) const {
  SimWorkspace ws;
  encode_into(activations, ws, ws.cur);
  return ws.cur.to_raster();
}

SpikeRaster CodingScheme::run_layer(const SpikeRaster& in,
                                    const SynapseTopology& syn,
                                    LayerRole role) const {
  SimWorkspace ws;
  ws.cur.assign_from(in);
  run_layer_into(ws.cur, syn, role, ws, ws.next);
  return ws.next.to_raster();
}

Tensor CodingScheme::readout(const SpikeRaster& in, const SynapseTopology& syn,
                             LayerRole role) const {
  SimWorkspace ws;
  ws.cur.assign_from(in);
  Tensor logits{Shape{syn.out_size()}};
  readout_into(ws.cur, syn, role, ws, logits.data());
  return logits;
}

}  // namespace tsnn::snn
