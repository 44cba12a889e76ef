// Tests for snn::simulate_into's stepped execution and anytime policy.
//
// The load-bearing contract: a DecisionPolicy that never fires is
// bit-identical to the policy off -- same logits, same spike counts, same
// per-train tallies -- across every coding scheme, both stage topologies
// (dense-only and conv/pool), and every noise condition. On clean inputs
// with a per-step-causal scheme the enabled policy runs the lockstep
// wavefront and the policy off runs stage by stage, so this pins the two
// execution orders against each other. Policy edge cases (min_timesteps ==
// window, hard deadline) and the determinism contract (early exit must not
// perturb the per-image RNG streams of later images) ride on top, plus unit
// coverage for EventBuffer's incremental close_step() production.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coding/registry.h"
#include "common/error.h"
#include "core/ttas.h"
#include "noise/noise.h"
#include "snn/event_buffer.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "snn/workspace.h"

namespace tsnn::snn {
namespace {

/// Two-stage dense model (5 -> 4 -> 3), the simulator-golden fixture shape.
SnnModel dense_model() {
  SnnModel model(Shape{5});
  Tensor w1{Shape{4, 5}};
  for (std::size_t i = 0; i < w1.numel(); ++i) {
    w1[i] = 0.07f * static_cast<float>((i * 13) % 11) - 0.2f;
  }
  Tensor w2{Shape{3, 4}};
  for (std::size_t i = 0; i < w2.numel(); ++i) {
    w2[i] = 0.11f * static_cast<float>((i * 7) % 9) - 0.3f;
  }
  model.add_stage("h", std::make_unique<DenseTopology>(w1));
  model.add_stage("r", std::make_unique<DenseTopology>(w2));
  return model;
}

/// Conv/pool/dense model on an 8x8 input, the zero-alloc fixture shape.
SnnModel conv_model() {
  SnnModel model(Shape{1, 8, 8});
  Tensor conv_w{Shape{4, 1, 3, 3}};
  for (std::size_t i = 0; i < conv_w.numel(); ++i) {
    conv_w[i] = 0.05f * static_cast<float>((i * 17) % 13) - 0.25f;
  }
  model.add_stage("conv", std::make_unique<ConvTopology>(conv_w, 8, 8,
                                                         /*stride=*/1,
                                                         /*pad=*/1));
  model.add_stage("pool", std::make_unique<PoolTopology>(4, 8, 8, 2));
  Tensor dense_w{Shape{5, 64}};
  for (std::size_t i = 0; i < dense_w.numel(); ++i) {
    dense_w[i] = 0.03f * static_cast<float>((i * 7) % 17) - 0.2f;
  }
  model.add_stage("readout", std::make_unique<DenseTopology>(dense_w));
  return model;
}

Tensor image_for(const SnnModel& model) {
  Tensor img{model.input_shape()};
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>((i * 31) % 64) / 64.0f;
  }
  return img;
}

CodingSchemePtr scheme_for(Coding c) {
  return c == Coding::kTtas ? core::make_ttas(5) : coding::make_scheme(c);
}

const std::vector<Coding>& all_codings() {
  static const std::vector<Coding> kCodings{Coding::kRate, Coding::kPhase,
                                            Coding::kBurst, Coding::kTtfs,
                                            Coding::kTtas};
  return kCodings;
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.logits, b.logits) << what;
  EXPECT_EQ(a.predicted_class, b.predicted_class) << what;
  EXPECT_EQ(a.total_spikes, b.total_spikes) << what;
  EXPECT_EQ(a.layer_spikes, b.layer_spikes) << what;
  EXPECT_EQ(a.decision_timestep, b.decision_timestep) << what;
  EXPECT_EQ(a.margin, b.margin) << what;
}

// ---------------------------------------------------------------------------
// A never-firing policy (margin 1e9: no logit gap reaches it) is
// bit-identical to the policy off, for every coding x {dense, conv} x
// {clean, deletion, jitter}. Clean rate/phase/burst runs take the wavefront
// under the policy and stage by stage without it.

TEST(SteppedCore, NeverFiringPolicyBitIdenticalToPolicyOff) {
  const SnnModel dense = dense_model();
  const SnnModel conv = conv_model();
  DecisionPolicy never;
  never.mode = DecisionPolicy::Mode::kMargin;
  never.margin = 1e9f;
  SimWorkspace off_ws, on_ws;  // reused across all combos, like a sweep
  SimResult off, on;
  for (const SnnModel* model : {&dense, &conv}) {
    const Tensor img = image_for(*model);
    for (const Coding c : all_codings()) {
      const auto scheme = scheme_for(c);
      for (int cond = 0; cond < 3; ++cond) {
        const NoiseModelPtr noise =
            cond == 0 ? nullptr
                      : (cond == 1 ? noise::make_deletion(0.3)
                                   : noise::make_jitter(1.0));
        for (std::uint64_t stream = 0; stream < 2; ++stream) {
          Rng rng1 = Rng::for_stream(9001, stream);
          Rng rng2 = Rng::for_stream(9001, stream);
          simulate_into(
              SimRequest{model, scheme.get(), noise.get(), &rng1, &off_ws},
              img, off);
          simulate_into(SimRequest{model, scheme.get(), noise.get(), &rng2,
                                   &on_ws, never},
                        img, on);
          const std::string what = coding_name(c) + " cond " +
                                   std::to_string(cond) + " stream " +
                                   std::to_string(stream);
          expect_identical(off, on, what);
          // Both consumed the full readout window; guard against a vacuous
          // 0 == 0 comparison.
          EXPECT_GT(on.decision_timestep, 0u) << what;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Policy edge cases.

TEST(SteppedCore, MinTimestepsAtWindowIsNoOp) {
  // margin 0 exits at the first policy check, but min_timesteps == the full
  // window defers that check to the last step: a no-op policy.
  const SnnModel model = dense_model();
  const Tensor img = image_for(model);
  for (const Coding c : all_codings()) {
    const auto scheme = scheme_for(c);
    SimResult ref, res;
    simulate_into(SimRequest{&model, scheme.get()}, img, ref);
    SimRequest req{&model, scheme.get()};
    req.policy.mode = DecisionPolicy::Mode::kMargin;
    req.policy.margin = 0.0f;
    req.policy.min_timesteps = ref.decision_timestep;  // == readout window
    simulate_into(req, img, res);
    expect_identical(ref, res, std::string("min==window ") + coding_name(c));
  }
}

TEST(SteppedCore, DeadlineCapsConsumedTimesteps) {
  const SnnModel model = dense_model();
  const Tensor img = image_for(model);
  const auto scheme = scheme_for(Coding::kRate);
  SimRequest req{&model, scheme.get()};
  req.policy.deadline = 3;  // mode stays kOff; deadline alone enables
  SimResult res;
  simulate_into(req, img, res);
  EXPECT_EQ(res.decision_timestep, 3u);
  // The recorded margin is the gap of the truncated logits.
  EXPECT_EQ(res.margin,
            logit_margin(res.logits.data(), res.logits.numel()));
}

TEST(SteppedCore, AggressiveMarginExitsEarlyOnTemporalCoding) {
  // TTFS concentrates its evidence in the earliest timesteps; a modest
  // margin threshold should decide well before the full window.
  const SnnModel model = conv_model();
  const Tensor img = image_for(model);
  const auto scheme = scheme_for(Coding::kTtfs);
  SimResult ref, res;
  simulate_into(SimRequest{&model, scheme.get()}, img, ref);
  SimRequest req{&model, scheme.get()};
  req.policy.mode = DecisionPolicy::Mode::kMargin;
  req.policy.margin = 1e-4f;
  req.policy.min_timesteps = 1;
  simulate_into(req, img, res);
  EXPECT_LT(res.decision_timestep, ref.decision_timestep);
  EXPECT_GE(res.margin, req.policy.margin);
}

// ---------------------------------------------------------------------------
// Determinism: early exit on image i must not perturb image i+1 (each image
// draws noise from its own Rng stream; an exited simulation leaves no state
// behind in the shared workspace that changes the next image's result).

TEST(SteppedCore, EarlyExitDoesNotPerturbLaterImages) {
  const SnnModel model = conv_model();
  const auto scheme = scheme_for(Coding::kTtas);
  const auto noise = noise::make_deletion(0.3);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < 4; ++i) {
    Tensor img{model.input_shape()};
    for (std::size_t j = 0; j < img.numel(); ++j) {
      img[j] = static_cast<float>((j * 31 + i * 7) % 64) / 64.0f;
    }
    images.push_back(std::move(img));
  }

  DecisionPolicy aggressive;
  aggressive.mode = DecisionPolicy::Mode::kMargin;
  aggressive.margin = 1e-4f;
  aggressive.min_timesteps = 1;

  // Solo runs: each image in a fresh workspace.
  std::vector<SimResult> solo(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    SimWorkspace ws;
    Rng rng = Rng::for_stream(777, i);
    simulate_into(
        SimRequest{&model, scheme.get(), noise.get(), &rng, &ws, aggressive},
        images[i], solo[i]);
  }

  // Batch run: same streams back to back over one shared workspace, where a
  // leak from an early-exited image could surface.
  SimWorkspace ws;
  for (std::size_t i = 0; i < images.size(); ++i) {
    Rng rng = Rng::for_stream(777, i);
    SimResult batched;
    simulate_into(
        SimRequest{&model, scheme.get(), noise.get(), &rng, &ws, aggressive},
        images[i], batched);
    expect_identical(solo[i], batched, "image " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// EventBuffer incremental production.

TEST(EventBufferSteps, CloseStepMatchesBatchFinalize) {
  EventBuffer inc, batch;
  inc.reset(4, 6);
  batch.reset(4, 6);
  const std::vector<std::pair<std::int32_t, std::uint32_t>> events{
      {0, 1}, {0, 3}, {2, 0}, {3, 2}, {3, 3}, {5, 1}};
  std::size_t next = 0;
  for (std::int32_t t = 0; t < 6; ++t) {
    while (next < events.size() && events[next].first == t) {
      inc.push_step(events[next].first, &events[next].second, 1);
      ++next;
    }
    inc.close_step();
    EXPECT_EQ(inc.steps_closed(), static_cast<std::size_t>(t) + 1);
    // Closed prefix is readable before finalize.
    EXPECT_NO_THROW(inc.step(static_cast<std::size_t>(t)));
  }
  for (const auto& [t, n] : events) {
    batch.push_step(t, &n, 1);
  }
  batch.finalize();
  // finalize() subsumes the incremental offsets: identical spans either way.
  inc.finalize();
  for (std::size_t t = 0; t < 6; ++t) {
    const EventBuffer::StepSpan a = inc.step(t);
    const EventBuffer::StepSpan b = batch.step(t);
    ASSERT_EQ(a.count, b.count) << "step " << t;
    for (std::size_t i = 0; i < a.count; ++i) {
      EXPECT_EQ(a.ids[i], b.ids[i]);
    }
  }
}

TEST(EventBufferSteps, ClosedStepRejectsLatePushes) {
  EventBuffer buf;
  buf.reset(4, 4);
  const std::uint32_t ids[] = {1, 2};
  buf.push_step(0, ids, 1);
  buf.close_step();
  EXPECT_THROW(buf.push_step(0, ids + 1, 1), InvalidArgument);  // closed
  buf.push_step(1, ids + 1, 1);  // later steps still open
  EXPECT_EQ(buf.steps_closed(), 1u);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(EventBufferSteps, UnclosedStepsUnreadableUntilFinalize) {
  EventBuffer buf;
  buf.reset(2, 3);
  const std::uint32_t id = 0;
  buf.push_step(0, &id, 1);
  buf.close_step();
  EXPECT_NO_THROW(buf.step(0));
  EXPECT_THROW(buf.step(1), InvalidArgument);
  buf.finalize();
  EXPECT_NO_THROW(buf.step(2));
}

TEST(EventBufferSteps, ResetClearsClosedSteps) {
  EventBuffer buf;
  buf.reset(2, 2);
  const std::uint32_t ids[] = {0, 1};
  buf.push_step(0, ids, 1);
  buf.close_step();
  buf.reset(2, 2);
  EXPECT_EQ(buf.steps_closed(), 0u);
  buf.push_step(0, ids + 1, 1);  // would throw if the old closed step survived
  EXPECT_EQ(buf.steps_closed(), 0u);
}

}  // namespace
}  // namespace tsnn::snn
