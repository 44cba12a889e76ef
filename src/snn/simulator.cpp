#include "snn/simulator.h"

#include <charconv>
#include <limits>
#include <utility>

#include "common/error.h"
// The request-scoped execution body applies the pre-encoding input
// corruption itself (it owns the one-rng-stream-per-request draw-order
// contract), which is the single place the snn layer reaches up into the
// noise module's input-noise hierarchy. input_noise.h depends only on
// tensor/ and common/, so no include cycle is possible.
#include "noise/input_noise.h"
#include "tensor/tensor_ops.h"

namespace tsnn::snn {

std::string DecisionPolicy::describe() const {
  if (!enabled()) {
    return "off";
  }
  std::string s;
  if (mode == Mode::kMargin) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), margin);
    s += "margin:";
    s.append(buf, res.ptr);
  }
  if (min_timesteps > 0) {
    if (!s.empty()) {
      s += ",";
    }
    s += "min:" + std::to_string(min_timesteps);
  }
  if (deadline > 0) {
    if (!s.empty()) {
      s += ",";
    }
    s += "deadline:" + std::to_string(deadline);
  }
  return s;
}

float logit_margin(const float* logits, std::size_t n) {
  if (n < 2) {
    return 0.0f;
  }
  float top1 = std::numeric_limits<float>::lowest();
  float top2 = std::numeric_limits<float>::lowest();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = logits[i];
    if (v > top1) {
      top2 = top1;
      top1 = v;
    } else if (v > top2) {
      top2 = v;
    }
  }
  return top1 - top2;
}

void simulate_into(const SimRequest& req, const Tensor& image,
                   SimResult& out) {
  TSNN_CHECK_MSG(req.model != nullptr && req.scheme != nullptr,
                 "SimRequest needs a model and a scheme");
  TSNN_CHECK_MSG(req.noise == nullptr || req.rng != nullptr,
                 "noise model requires an rng");
  TSNN_CHECK_MSG(req.model->num_stages() > 0, "empty SNN model");
  TSNN_CHECK_SHAPE(image.shape() == req.model->input_shape(),
                   "image " << shape_to_string(image.shape()) << " expected "
                            << shape_to_string(req.model->input_shape()));
  if (req.workspace == nullptr) {
    SimRequest with_ws = req;
    SimWorkspace ws;
    with_ws.workspace = &ws;
    simulate_into(with_ws, image, out);
    return;
  }
  const SnnModel& model = *req.model;
  const CodingScheme& scheme = *req.scheme;
  const NoiseModel* noise = req.noise;
  Rng* rng = req.rng;
  SimWorkspace& ws = *req.workspace;
  const DecisionPolicy& policy = req.policy;

  out.layer_spikes.clear();
  out.total_spikes = 0;

  scheme.encode_into(image, ws, ws.cur);
  if (noise != nullptr) {
    noise->apply_inplace(ws.cur, ws.sort, *rng);
  }
  out.layer_spikes.push_back(ws.cur.size());

  const std::size_t num_stages = model.num_stages();
  const std::size_t hidden = num_stages - 1;
  const SynapseTopology& readout_syn = *model.stage(num_stages - 1).synapse;
  const std::size_t num_classes = readout_syn.out_size();
  if (out.logits.rank() != 1 || out.logits.dim(0) != num_classes) {
    out.logits = Tensor{Shape{num_classes}};  // first use only
  }
  float* const logits = out.logits.data();
  StageState& rst = ws.stage_state(num_stages - 1);

  // Per-readout-step policy evaluation, shared by both regimes. Consuming
  // step t may finish the decision: on a margin check (not before
  // min_timesteps) or a deadline hit the current potentials are copied out
  // and the margin measured -- finish_readout is a pure copy, so peeking
  // is free of side effects on the accumulation. With the policy off no
  // check ever fires and the full window is consumed.
  const bool margin_mode = policy.mode == DecisionPolicy::Mode::kMargin;
  std::size_t consumed = 0;
  bool exited = false;
  const auto consume_readout_step = [&](const EventBuffer& rin,
                                        LayerRole rrole, std::size_t t) {
    scheme.step_readout(rin, readout_syn, rrole, t, rst);
    consumed = t + 1;
    const bool deadline_hit = policy.deadline > 0 && consumed >= policy.deadline;
    const bool margin_check = margin_mode && consumed >= policy.min_timesteps;
    if (margin_check || deadline_hit) {
      scheme.finish_readout(readout_syn, rst, logits);
      out.margin = logit_margin(logits, num_classes);
      if (deadline_hit || out.margin >= policy.margin) {
        exited = true;
      }
    }
    return exited;
  };

  // The wavefront only pays off when a policy can truncate the remaining
  // timesteps; without one, stage by stage is the cheaper order (the
  // per-step dispatch costs ~5%) and computes the same bits. Wavefront
  // order also needs every hidden stage to be per-step causal, and noise
  // models corrupt *complete* trains in stage order from one Rng stream
  // (the draw-order contract) -- with any obstacle the hidden stages run to
  // completion stage by stage and only the readout is stepped.
  const bool wavefront = policy.enabled() && hidden > 0 &&
                         scheme.causal_step() && noise == nullptr;

  if (!wavefront) {
    // ws.cur/ws.next ping-pong by swap (pointer exchange, no allocation).
    LayerRole role = LayerRole::kFirstHidden;
    for (std::size_t s = 0; s + 1 < num_stages; ++s) {
      scheme.run_layer_into(ws.cur, *model.stage(s).synapse, role, ws, ws.next);
      std::swap(ws.cur, ws.next);
      role = LayerRole::kHidden;
      if (noise != nullptr) {
        noise->apply_inplace(ws.cur, ws.sort, *rng);
      }
      out.layer_spikes.push_back(ws.cur.size());
    }
    scheme.begin_readout(ws.cur, readout_syn, role, rst);
    const std::size_t steps = ws.cur.window();
    for (std::size_t t = 0; t < steps; ++t) {
      if (consume_readout_step(ws.cur, role, t)) {
        break;
      }
    }
  } else {
    // Lockstep wavefront: in round t, stage s consumes step t of its input
    // (closed earlier the same round by stage s-1) and closes its own step
    // t; then the readout consumes step t and the policy is consulted. An
    // early exit truncates the remaining timesteps of every stage.
    const auto stage_input = [&](std::size_t s) -> const EventBuffer& {
      return s == 0 ? ws.cur : ws.stage_state(s - 1).out;
    };
    const auto stage_role = [](std::size_t s) {
      return s == 0 ? LayerRole::kFirstHidden : LayerRole::kHidden;
    };
    for (std::size_t s = 0; s < hidden; ++s) {
      StageState& st = ws.stage_state(s);
      scheme.begin_layer(stage_input(s), *model.stage(s).synapse,
                         stage_role(s), st, st.out);
    }
    const EventBuffer& rin = ws.stage_state(hidden - 1).out;
    const LayerRole rrole = LayerRole::kHidden;
    scheme.begin_readout(rin, readout_syn, rrole, rst);
    const std::size_t readout_steps = rin.window();
    for (std::size_t t = 0; t < readout_steps; ++t) {
      for (std::size_t s = 0; s < hidden; ++s) {
        StageState& st = ws.stage_state(s);
        const EventBuffer& sin = stage_input(s);
        const SynapseTopology& syn = *model.stage(s).synapse;
        const std::size_t steps_s = scheme.layer_steps(sin.window());
        if (t < steps_s) {
          scheme.step_layer(sin, syn, stage_role(s), t, st, st.out);
          st.out.close_step();
          if (t + 1 == steps_s) {
            scheme.end_layer(sin, syn, stage_role(s), st, st.out);
          }
        }
      }
      if (consume_readout_step(rin, rrole, t)) {
        break;
      }
    }
    for (std::size_t s = 0; s < hidden; ++s) {
      out.layer_spikes.push_back(ws.stage_state(s).out.size());
    }
  }

  if (!exited) {
    scheme.finish_readout(readout_syn, rst, logits);
    out.margin = logit_margin(logits, num_classes);
  }
  out.decision_timestep = consumed;

  for (const std::size_t n : out.layer_spikes) {
    out.total_spikes += n;
  }
  out.predicted_class = ops::argmax(out.logits);
}

SimResult simulate(const SimRequest& req, const Tensor& image) {
  SimResult out;
  simulate_into(req, image, out);
  return out;
}

void execute_request(const ClassifyRequest& req, SimWorkspace& ws,
                     SimResult& out) {
  TSNN_CHECK_MSG(req.image != nullptr, "classify request needs an image");
  // The request's private stream: a pure function of (seed, stream), so
  // the result never depends on what ran before, alongside, or after it.
  Rng rng = Rng::for_stream(req.seed, req.stream);
  const Tensor* image = req.image;
  if (req.input_noise != nullptr) {
    // Input corruption draws from the stream first, spike noise second --
    // one deterministic draw order per request regardless of stack shape.
    req.input_noise->apply_into(*image, ws.input_scratch, rng);
    image = &ws.input_scratch;
  }
  SimRequest sim = req.sim;
  sim.rng = &rng;
  sim.workspace = &ws;
  simulate_into(sim, *image, out);
}

BatchResult evaluate(const SnnModel& model, const CodingScheme& scheme,
                     const std::vector<Tensor>& images,
                     const std::vector<std::size_t>& labels,
                     const NoiseModel* noise, const EvalOptions& options) {
  TSNN_CHECK_MSG(images.size() == labels.size(), "images/labels size mismatch");
  const std::size_t n = images.size();
  BatchResult out;
  out.num_images = n;
  if (n == 0) {
    return out;
  }

  // Image i is the ClassifyRequest with stream identity (base_seed, i) and
  // runs through the same execute_request() body as core::run_grid's
  // admission-queued stream and the online core::InferenceServer -- one
  // execution path, so batch, grid, and served results are bit-identical
  // by construction. The calling thread's workspace stays warm across
  // consecutive batches.
  thread_local SimWorkspace ws;
  thread_local SimResult r;
  ClassifyRequest req;
  req.sim = SimRequest{&model, &scheme, noise, nullptr, nullptr,
                       options.policy};
  req.seed = options.base_seed;
  double spike_acc = 0.0;
  double decision_acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    req.image = &images[i];
    req.stream = i;
    execute_request(req, ws, r);
    out.num_correct += r.predicted_class == labels[i] ? 1 : 0;
    spike_acc += static_cast<double>(r.total_spikes);
    decision_acc += static_cast<double>(r.decision_timestep);
  }
  out.accuracy =
      static_cast<double>(out.num_correct) / static_cast<double>(n);
  out.mean_spikes_per_image = spike_acc / static_cast<double>(n);
  out.mean_decision_timesteps = decision_acc / static_cast<double>(n);
  return out;
}

}  // namespace tsnn::snn
