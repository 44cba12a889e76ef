// Tests for the flat EventBuffer hot-path representation: CSR bucketing,
// the step-order append contract, raster round trips, in-place noise
// equivalence against the raster path, and fixed-seed golden vectors
// captured from the pre-event-buffer implementation -- pinning that the
// rewrite is bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coding/registry.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/ttas.h"
#include "noise/deletion.h"
#include "noise/jitter.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "snn/event_buffer.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "snn/workspace.h"

namespace tsnn::snn {
namespace {

/// The deterministic raster the golden vectors below were captured from.
SpikeRaster golden_input() {
  SpikeRaster r(6, 16);
  for (std::size_t t = 0; t < 16; ++t) {
    for (std::uint32_t n = 0; n < 6; ++n) {
      if ((t * 7 + n * 3) % 5 < 2) {
        r.add(t, n);
      }
    }
  }
  return r;
}

/// Every event of a finalized buffer, time-major, read through its
/// per-step spans.
std::vector<SpikeEvent> events_of(const EventBuffer& buf) {
  std::vector<SpikeEvent> out;
  for (std::size_t t = 0; t < buf.window(); ++t) {
    const EventBuffer::StepSpan span = buf.step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      out.push_back(SpikeEvent{span.ids[i], static_cast<std::int32_t>(t)});
    }
  }
  return out;
}

/// events_of() a finalized copy: the (time, neuron) stream a buffer holds,
/// finalized or not.
std::vector<SpikeEvent> finalized_events_of(const EventBuffer& buf) {
  EventBuffer copy = buf;
  copy.finalize();
  return events_of(copy);
}

/// A step of ids at one time: the unit of the step-order producers.
using Steps = std::vector<std::pair<std::int32_t, std::vector<std::uint32_t>>>;

/// The reference train of `steps`: a SpikeRaster filled in the same order,
/// converted by assign_from().
EventBuffer raster_train(std::size_t num_neurons, std::size_t window,
                         const Steps& steps) {
  SpikeRaster raster(num_neurons, window);
  for (const auto& [t, ids] : steps) {
    for (const std::uint32_t id : ids) {
      raster.add(static_cast<std::size_t>(t), id);
    }
  }
  EventBuffer buf;
  buf.assign_from(raster);
  return buf;
}

TEST(EventBuffer, PushStepFinalizeBucketsSteps) {
  EventBuffer buf;
  buf.reset(4, 8);
  const std::uint32_t ids[] = {2, 0, 3};
  buf.push_step(1, ids, 2);
  buf.push_step(5, ids + 2, 1);
  buf.finalize();
  EXPECT_EQ(buf.size(), 3u);
  const EventBuffer::StepSpan one = buf.step(1);
  ASSERT_EQ(one.count, 2u);
  EXPECT_EQ(one.ids[0], 2u);  // emission order kept within a step
  EXPECT_EQ(one.ids[1], 0u);
  EXPECT_EQ(buf.step(5).count, 1u);
  EXPECT_EQ(buf.step(0).count, 0u);
}

TEST(EventBuffer, PushStepValidatesBounds) {
  EventBuffer buf;
  buf.reset(2, 4);
  const std::uint32_t ids[] = {0, 2};
  EXPECT_THROW(buf.push_step(4, ids, 1), InvalidArgument);
  EXPECT_THROW(buf.push_step(-1, ids, 1), InvalidArgument);
  EXPECT_THROW(buf.push_step(0, ids + 1, 1), InvalidArgument);
  EXPECT_TRUE(buf.empty());
}

TEST(EventBuffer, PushStepMatchesRaster) {
  // Steps in order (one empty, one repeated), a close, then later steps:
  // the buffer holds, after every call, the train a SpikeRaster filled in
  // the same order converts to, with the ids flat in that order.
  const Steps in_order = {{0, {3, 1, 4}}, {2, {}}, {2, {1, 5, 9, 2}}, {5, {6}}};
  const Steps later = {{5, {5, 3}}, {6, {8, 8}}, {7, {0}}};
  EventBuffer buf;
  buf.reset(10, 8);
  Steps so_far;
  const auto append = [&](const Steps& steps) {
    for (const auto& [t, ids] : steps) {
      buf.push_step(t, ids.data(), ids.size());
      so_far.emplace_back(t, ids);
      const EventBuffer want = raster_train(10, 8, so_far);
      ASSERT_EQ(buf.size(), want.size()) << "t=" << t;
      EXPECT_TRUE(std::equal(buf.neurons(), buf.neurons() + buf.size(),
                             want.neurons()))
          << "t=" << t;
      EXPECT_EQ(finalized_events_of(buf), events_of(want)) << "t=" << t;
      EXPECT_FALSE(buf.finalized()) << "t=" << t;
    }
  };
  append(in_order);
  buf.close_step();
  EXPECT_EQ(buf.steps_closed(), 1u);
  append(later);
  buf.finalize();
  EXPECT_EQ(events_of(buf), events_of(raster_train(10, 8, so_far)));
}

/// what() of the InvalidArgument `f` throws ("" when it does not throw).
template <typename F>
std::string invalid_argument_of(F&& f) {
  try {
    f();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(EventBuffer, PushStepThrowsLikeOneIdPushStep) {
  // An out-of-range id, a closed step and a time outside the window raise
  // the message a one-id push_step of the offending event raises on a
  // buffer in the same state; push_step appends nothing.
  const std::vector<std::uint32_t> ids = {1, 4, 2};
  const auto expect_same_throw = [&](auto&& prepare, std::int32_t t,
                                     std::uint32_t offending) {
    EventBuffer bulk;
    EventBuffer one;
    bulk.reset(4, 8);
    one.reset(4, 8);
    prepare(bulk);
    prepare(one);
    const std::vector<SpikeEvent> before = finalized_events_of(bulk);
    const std::string want =
        invalid_argument_of([&] { one.push_step(t, &offending, 1); });
    EXPECT_FALSE(want.empty()) << "t=" << t;
    EXPECT_EQ(invalid_argument_of(
                  [&] { bulk.push_step(t, ids.data(), ids.size()); }),
              want);
    EXPECT_EQ(finalized_events_of(bulk), before) << "t=" << t;
  };
  const auto nothing = [](EventBuffer&) {};
  expect_same_throw(nothing, 3, 4);  // neuron 4 of 4
  expect_same_throw(
      [](EventBuffer& b) {
        const std::uint32_t id = 1;
        b.push_step(0, &id, 1);
        b.close_step();
        b.close_step();
      },
      1, 1);
  expect_same_throw(nothing, 8, 1);
  expect_same_throw(nothing, -1, 1);
}

/// append_step() of `ids` at `t`, written the way a fire scan writes them:
/// into the room at the end of the train, with the last room - n entries
/// left as they were.
void append_ids(EventBuffer& buf, std::int32_t t,
                const std::vector<std::uint32_t>& ids, std::size_t room) {
  buf.append_step(t, room, [&](std::uint32_t* out) {
    std::copy(ids.begin(), ids.end(), out);
    return ids.size();
  });
}

TEST(EventBuffer, AppendsFollowStepOrder) {
  // A non-empty push_step or append_step at a step before the open step
  // (the step appends go to) throws, naming the time and the open step,
  // and leaves the train as it was. After finalize() every step is before
  // the open step. reset() reopens the train; an empty step is a no-op at
  // any time.
  const std::vector<std::uint32_t> ids = {0, 2};
  EventBuffer buf;
  const auto expect_rejected = [&](std::int32_t t, std::size_t open) {
    const std::string where =
        "t=" + std::to_string(t) + " open " + std::to_string(open);
    const std::string want = "event time " + std::to_string(t) +
                             " before open step " + std::to_string(open);
    const std::vector<SpikeEvent> before = finalized_events_of(buf);
    const std::size_t size = buf.size();
    const bool finalized = buf.finalized();
    const std::string by_push =
        invalid_argument_of([&] { buf.push_step(t, ids.data(), ids.size()); });
    EXPECT_NE(by_push.find(want), std::string::npos)
        << where << ": " << by_push;
    const std::string by_append =
        invalid_argument_of([&] { append_ids(buf, t, ids, 4); });
    EXPECT_NE(by_append.find(want), std::string::npos)
        << where << ": " << by_append;
    buf.push_step(t, ids.data(), 0);
    append_ids(buf, t, {}, 4);
    EXPECT_EQ(buf.size(), size) << where;
    EXPECT_EQ(buf.finalized(), finalized) << where;
    EXPECT_EQ(finalized_events_of(buf), before) << where;
  };
  buf.reset(4, 6);
  buf.push_step(1, ids.data(), 1);
  append_ids(buf, 3, {1, 3}, 4);  // step 3 is now the open step
  for (const std::int32_t t : {0, 1, 2}) {
    expect_rejected(t, 3);
  }
  // The open step itself and later steps still take appends.
  buf.push_step(3, ids.data() + 1, 1);
  append_ids(buf, 5, {0}, 4);
  buf.finalize();
  const std::vector<SpikeEvent> closed = {
      {0, 1}, {1, 3}, {3, 3}, {2, 3}, {0, 5}};
  EXPECT_EQ(events_of(buf), closed);
  for (std::int32_t t = 0; t < 6; ++t) {
    expect_rejected(t, 6);
  }
  // A time outside the window still reports the window.
  EXPECT_NE(invalid_argument_of([&] { buf.push_step(6, ids.data(), 1); })
                .find("outside window 6"),
            std::string::npos);
  EXPECT_EQ(events_of(buf), closed);
  buf.reset(4, 6);
  buf.push_step(0, ids.data(), ids.size());
  append_ids(buf, 0, {3}, 4);
  buf.finalize();
  EXPECT_EQ(events_of(buf), (std::vector<SpikeEvent>{{0, 0}, {2, 0}, {3, 0}}));
}

TEST(EventBuffer, AppendStepMatchesPushStep) {
  // In-order steps -- an empty one, a full one (ids fill the whole room),
  // a repeated one -- a close, appends after the close, then an earlier
  // step after a later one (rejected by both alike): both buffers hold the
  // same arrays, spans and flags throughout, and finalize to the same
  // train.
  constexpr std::size_t kNeurons = 10;
  const Steps in_order = {{0, {1, 3, 4}},
                          {1, {}},
                          {2, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
                          {2, {9}},
                          {4, {6}}};
  const Steps after_close = {{4, {2, 7}}, {6, {}}, {6, {0, 5, 8}}};
  const Steps later = {{7, {1}}};
  EventBuffer appended;
  EventBuffer pushed;
  appended.reset(kNeurons, 8);
  pushed.reset(kNeurons, 8);
  const auto append = [&](const Steps& steps) {
    for (const auto& [t, ids] : steps) {
      append_ids(appended, t, ids, kNeurons);
      pushed.push_step(t, ids.data(), ids.size());
      ASSERT_EQ(appended.size(), pushed.size()) << "t=" << t;
      for (std::size_t i = 0; i < pushed.size(); ++i) {
        EXPECT_EQ(appended.neurons()[i], pushed.neurons()[i]) << "t=" << t;
      }
      EXPECT_EQ(appended.finalized(), pushed.finalized()) << "t=" << t;
      EXPECT_EQ(appended.steps_closed(), pushed.steps_closed()) << "t=" << t;
      for (std::size_t s = 0; s < pushed.steps_closed(); ++s) {
        EXPECT_EQ(appended.step(s).count, pushed.step(s).count) << "t=" << t;
      }
      EXPECT_EQ(finalized_events_of(appended), finalized_events_of(pushed))
          << "t=" << t;
    }
  };
  append(in_order);
  appended.close_step();
  pushed.close_step();
  appended.close_step();
  pushed.close_step();
  append(after_close);
  appended.close_step();
  pushed.close_step();
  const std::vector<std::uint32_t> early = {3, 4};
  EXPECT_EQ(invalid_argument_of([&] { append_ids(appended, 5, early, 10); }),
            invalid_argument_of([&] { pushed.push_step(5, early.data(), 2); }));
  append(later);
  appended.finalize();
  pushed.finalize();
  EXPECT_TRUE(appended.finalized());
  EXPECT_EQ(events_of(appended), events_of(pushed));
  for (std::size_t t = 0; t < pushed.window(); ++t) {
    const EventBuffer::StepSpan a = appended.step(t);
    const EventBuffer::StepSpan p = pushed.step(t);
    ASSERT_EQ(a.count, p.count) << "t=" << t;
    EXPECT_TRUE(std::equal(a.ids, a.ids + a.count, p.ids)) << "t=" << t;
  }
}

TEST(EventBuffer, AppendStepThrowsLikePushStepAndKeepsTheBuffer) {
  // A time outside the window, a closed step and an id past the range
  // raise push_step()'s message, and the train is left as it was; an empty
  // step is a no-op whatever its time, as for push_step.
  const std::vector<std::uint32_t> ids = {1, 2, 4};
  EventBuffer appended;
  EventBuffer pushed;
  const auto expect_same_throw = [&](auto&& prepare, std::int32_t t) {
    appended.reset(4, 8);
    pushed.reset(4, 8);
    prepare(appended);
    prepare(pushed);
    const std::vector<SpikeEvent> before = finalized_events_of(appended);
    const std::string want = invalid_argument_of(
        [&] { pushed.push_step(t, ids.data(), ids.size()); });
    EXPECT_FALSE(want.empty()) << "t=" << t;
    EXPECT_EQ(invalid_argument_of([&] { append_ids(appended, t, ids, 4); }),
              want)
        << "t=" << t;
    EXPECT_EQ(finalized_events_of(appended), before) << "t=" << t;
    append_ids(appended, t, {}, 4);
    EXPECT_EQ(finalized_events_of(appended), before) << "t=" << t;
  };
  const auto nothing = [](EventBuffer&) {};
  const auto closed_two = [](EventBuffer& b) {
    const std::uint32_t id = 1;
    b.push_step(0, &id, 1);
    b.close_step();
    b.close_step();
  };
  expect_same_throw(nothing, 3);  // neuron 4 of 4
  expect_same_throw(closed_two, 1);
  expect_same_throw(closed_two, 2);  // open step, neuron 4 of 4
  expect_same_throw(nothing, 8);
  expect_same_throw(nothing, -1);
}

/// The reference emission assign_bursts() must reproduce: a SpikeRaster
/// filled with every burst neuron-major (k ascending, then step), converted
/// by assign_from().
EventBuffer raster_bursts(std::size_t num_neurons, std::size_t window,
                          const std::vector<std::int32_t>& first,
                          const std::vector<std::uint32_t>& ids,
                          std::size_t duration) {
  SpikeRaster raster(num_neurons, window);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (std::size_t b = 0; b < duration; ++b) {
      raster.add(static_cast<std::size_t>(first[k]) + b, ids[k]);
    }
  }
  EventBuffer buf;
  buf.assign_from(raster);
  return buf;
}

TEST(EventBuffer, AssignBurstsMatchesNeuronMajorRaster) {
  // Random bursts over ascending ids with gaps, TTFS's duration 1 and
  // TTAS's 5 and 10, some ending at window - 1; the empty emission too.
  // The target buffer starts out holding another, unfinalized train, which
  // the emission must replace.
  const std::size_t num_neurons = 48;
  Rng rng(2024);
  for (const std::size_t duration : {1u, 5u, 10u}) {
    const std::size_t window = 12 + duration - 1;
    const auto last_first = static_cast<std::int64_t>(window - duration);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<std::uint32_t> ids;
      std::vector<std::int32_t> first;
      for (std::uint32_t i = 0; i < num_neurons && trial > 0; ++i) {
        if (rng.bernoulli(0.55)) {
          ids.push_back(i);
          first.push_back(static_cast<std::int32_t>(
              rng.bernoulli(0.2) ? last_first
                                 : rng.uniform_int(0, last_first)));
        }
      }
      const std::string where = "duration " + std::to_string(duration) +
                                " trial " + std::to_string(trial) + " n " +
                                std::to_string(ids.size());
      const EventBuffer want =
          raster_bursts(num_neurons, window, first, ids, duration);
      EventBuffer got;
      EventSortScratch scratch;
      got.assign_from(golden_input());
      got.reset(num_neurons, window);
      const std::uint32_t held[] = {2, 7};
      got.push_step(1, held, 1);
      got.push_step(3, held + 1, 1);
      got.assign_bursts(first.data(), ids.data(), ids.size(), duration,
                        scratch);
      ASSERT_TRUE(got.finalized()) << where;
      EXPECT_EQ(got.num_neurons(), want.num_neurons()) << where;
      EXPECT_EQ(got.window(), want.window()) << where;
      EXPECT_EQ(got.size(), want.size()) << where;
      EXPECT_EQ(got.size(), ids.size() * duration) << where;
      EXPECT_EQ(events_of(got), events_of(want)) << where;
      // Like the converted train, the emitted one takes no further append.
      const std::uint32_t late = 0;
      const auto last = static_cast<std::int32_t>(window - 1);
      EventBuffer want_next = want;
      EXPECT_EQ(invalid_argument_of([&] { got.push_step(last, &late, 1); }),
                invalid_argument_of(
                    [&] { want_next.push_step(last, &late, 1); }))
          << where;
      EXPECT_EQ(events_of(got), events_of(want)) << where;
    }
  }
}

TEST(EventBuffer, AssignBurstsThrowsLikeOneIdPushStepAndKeepsTheBuffer) {
  // A bad id or first step throws the message a freshly reset buffer's
  // one-id push_step of the first bad burst event (neuron-major) throws,
  // and the buffer keeps the train it held.
  const std::size_t num_neurons = 9;
  const std::size_t window = 8;
  struct Case {
    std::vector<std::int32_t> first;
    std::vector<std::uint32_t> ids;
    std::size_t duration;
  };
  const std::vector<Case> cases = {
      {{0, 1, 2}, {1, 4, 9}, 3},   // id out of range
      {{0, 6, 2}, {1, 4, 5}, 3},   // burst runs past the window
      {{0, -1, 2}, {1, 4, 5}, 3},  // negative first step
      {{0, 9, 2}, {1, 4, 5}, 1},   // first step past the window
      {{0, 9}, {12, 4}, 2},        // bad id before a bad step
      {{6}, {20}, 3},              // bad id at a step inside the window
      {{0, 3, 5}, {8, 0, 2}, 4},   // overrun in the last burst
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& bad = cases[c];
    std::string want;
    for (std::size_t k = 0; k < bad.ids.size() && want.empty(); ++k) {
      for (std::size_t b = 0; b < bad.duration && want.empty(); ++b) {
        EventBuffer fresh;
        fresh.reset(num_neurons, window);
        want = invalid_argument_of([&] {
          fresh.push_step(bad.first[k] + static_cast<std::int32_t>(b),
                          &bad.ids[k], 1);
        });
      }
    }
    ASSERT_FALSE(want.empty()) << "case " << c;
    EventBuffer buf;
    EventSortScratch scratch;
    buf.reset(num_neurons, window);
    const std::uint32_t held[] = {3, 8};
    buf.push_step(2, held, 1);
    buf.push_step(5, held + 1, 1);
    buf.finalize();
    const std::vector<SpikeEvent> before = events_of(buf);
    EXPECT_EQ(invalid_argument_of([&] {
                buf.assign_bursts(bad.first.data(), bad.ids.data(),
                                  bad.ids.size(), bad.duration, scratch);
              }),
              want)
        << "case " << c;
    ASSERT_TRUE(buf.finalized()) << "case " << c;
    EXPECT_EQ(buf.window(), window) << "case " << c;
    EXPECT_EQ(events_of(buf), before) << "case " << c;
  }
}

TEST(EventBuffer, RasterRoundTripPreservesEverything) {
  const SpikeRaster in = golden_input();
  EventBuffer buf;
  buf.assign_from(in);
  EXPECT_EQ(buf.size(), in.total_spikes());
  EXPECT_EQ(buf.num_neurons(), in.num_neurons());
  EXPECT_EQ(buf.window(), in.window());
  const SpikeRaster back = buf.to_raster();
  EXPECT_EQ(back.to_events(), in.to_events());
}

TEST(EventBuffer, ResetRecyclesCapacityAcrossShapes) {
  EventBuffer buf;
  buf.assign_from(golden_input());
  buf.reset(3, 5);
  EXPECT_EQ(buf.size(), 0u);
  const std::uint32_t id = 2;
  buf.push_step(4, &id, 1);
  buf.finalize();
  EXPECT_EQ(buf.step(4).count, 1u);
}

TEST(EventBuffer, RemoveByMaskCompactsAndRebuildsOffsets) {
  // Empty first and last steps, a step that loses every event, one that
  // keeps every event, and steps long enough for every table's vector
  // width and tail: each step keeps exactly its masked ids, in order.
  constexpr std::size_t kNeurons = 16;
  constexpr std::size_t kWindow = 8;
  Steps steps = {{1, {3, 1, 5, 0}}, {2, {2, 7}}, {3, {4, 6, 1}}};
  std::vector<std::vector<std::uint8_t>> keeps = {
      {1, 0, 1, 0}, {0, 0}, {1, 1, 1}};
  for (const std::int32_t t : {4, 5, 6}) {
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> keep;
    for (std::size_t i = 0; i < 13 * static_cast<std::size_t>(t); ++i) {
      ids.push_back(static_cast<std::uint32_t>((i * 7 + t) % kNeurons));
      keep.push_back((i * 5 + static_cast<std::size_t>(t)) % 3 != 0 ? 1 : 0);
    }
    steps.emplace_back(t, ids);
    keeps.push_back(keep);
  }
  std::vector<std::uint8_t> mask;
  Steps kept;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < keeps[s].size(); ++i) {
      if (keeps[s][i] != 0) {
        ids.push_back(steps[s].second[i]);
      }
    }
    mask.insert(mask.end(), keeps[s].begin(), keeps[s].end());
    kept.emplace_back(steps[s].first, ids);
  }
  const SpikeRaster want = raster_train(kNeurons, kWindow, kept).to_raster();
  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    EventBuffer buf = raster_train(kNeurons, kWindow, steps);
    ASSERT_EQ(buf.size(), mask.size()) << table->isa;
    buf.remove_by_mask(mask.data());
    ASSERT_TRUE(buf.finalized()) << table->isa;
    EXPECT_EQ(buf.size(), want.total_spikes()) << table->isa;
    for (std::size_t t = 0; t < kWindow; ++t) {
      const EventBuffer::StepSpan span = buf.step(t);
      EXPECT_EQ(std::vector<std::uint32_t>(span.ids, span.ids + span.count),
                want.at(t))
          << table->isa << " step " << t;
    }
    EXPECT_EQ(buf.step(0).count, 0u) << table->isa;
    EXPECT_EQ(buf.step(2).count, 0u) << table->isa;
    EXPECT_EQ(buf.step(3).count, 3u) << table->isa;
    EXPECT_EQ(buf.step(kWindow - 1).count, 0u) << table->isa;
    EXPECT_EQ(buf.to_raster().to_events(), want.to_events()) << table->isa;
  }
}

TEST(EventBuffer, ShiftTimesRebucketsStably) {
  EventBuffer buf;
  EventSortScratch scratch;
  buf.reset(4, 8);
  const std::uint32_t ids[] = {0, 1, 2};
  buf.push_step(2, ids, 2);
  buf.push_step(6, ids + 2, 1);
  buf.finalize();
  // Shift everything onto step 3; stream order must be preserved within it.
  const std::int32_t shifts[] = {1, 1, -3};
  buf.shift_times(shifts, scratch);
  ASSERT_TRUE(buf.finalized());
  const EventBuffer::StepSpan three = buf.step(3);
  ASSERT_EQ(three.count, 3u);
  EXPECT_EQ(three.ids[0], 0u);
  EXPECT_EQ(three.ids[1], 1u);
  EXPECT_EQ(three.ids[2], 2u);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(EventBuffer, ShiftTimesClampsIntoWindow) {
  EventBuffer buf;
  EventSortScratch scratch;
  buf.reset(3, 5);
  for (const std::uint32_t id : {0u, 1u, 2u}) {
    buf.push_step(static_cast<std::int32_t>(id) + 1, &id, 1);
  }
  buf.finalize();
  // The extreme int32 shifts must clamp, not overflow.
  const std::int32_t shifts[] = {INT32_MIN, INT32_MAX, 0};
  buf.shift_times(shifts, scratch);
  ASSERT_EQ(buf.step(0).count, 1u);
  EXPECT_EQ(buf.step(0).ids[0], 0u);
  ASSERT_EQ(buf.step(3).count, 1u);
  EXPECT_EQ(buf.step(3).ids[0], 2u);
  ASSERT_EQ(buf.step(4).count, 1u);
  EXPECT_EQ(buf.step(4).ids[0], 1u);
  const std::vector<SpikeEvent> events = events_of(buf);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 0);
  EXPECT_EQ(events[2].time, 4);
}

// ---------------------------------------------------------------------------
// Raster-path vs event-path noise equivalence: both must consume the RNG in
// the same order and produce identical spike trains for any fixed seed.

void expect_paths_identical(const NoiseModel& noise, std::uint64_t seed) {
  const SpikeRaster in = golden_input();
  Rng rng_raster(seed);
  const SpikeRaster via_raster = noise.apply(in, rng_raster);

  EventBuffer buf;
  EventSortScratch scratch;
  buf.assign_from(in);
  Rng rng_events(seed);
  noise.apply_inplace(buf, scratch, rng_events);
  EXPECT_EQ(buf.to_raster().to_events(), via_raster.to_events())
      << noise.name() << " seed " << seed;
}

TEST(NoisePathEquivalence, DeletionJitterCompositeAgree) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xBEEFull, 987654321ull}) {
    expect_paths_identical(noise::DeletionNoise(0.4), seed);
    expect_paths_identical(noise::JitterNoise(1.7), seed);
    const auto composite = noise::make_deletion_jitter(0.3, 2.0);
    expect_paths_identical(*composite, seed);
  }
}

// ---------------------------------------------------------------------------
// Golden fixed-seed vectors captured from the PR 2 (pre-event-buffer)
// implementation. These pin that the rewrite did not change the RNG draw
// order or the corruption semantics: the exact event sequences must
// reproduce forever (the Rng implements its own distributions, so draws
// are platform-stable).

std::vector<SpikeEvent> ev(std::initializer_list<std::pair<int, unsigned>> list) {
  std::vector<SpikeEvent> out;
  for (const auto& [t, n] : list) {
    out.push_back(SpikeEvent{static_cast<std::uint32_t>(n),
                             static_cast<std::int32_t>(t)});
  }
  return out;
}

TEST(NoiseGolden, DeletionP04Seed123) {
  const SpikeRaster in = golden_input();
  Rng rng(123);
  const auto got = noise::DeletionNoise(0.4).apply(in, rng).to_events();
  const auto expected = ev({{0, 2}, {0, 5}, {2, 2}, {3, 0}, {3, 3}, {3, 5},
                            {4, 1}, {4, 4}, {5, 5}, {7, 2}, {7, 4}, {8, 5},
                            {10, 2}, {10, 5}, {11, 1}, {11, 3}, {12, 2},
                            {13, 3}, {13, 5}, {15, 0}, {15, 2}});
  EXPECT_EQ(got, expected);
}

TEST(NoiseGolden, JitterSigma15Seed321) {
  const SpikeRaster in = golden_input();
  Rng rng(321);
  const auto got = noise::JitterNoise(1.5).apply(in, rng).to_events();
  const auto expected = ev(
      {{0, 2}, {0, 5}, {0, 4}, {2, 0}, {2, 1}, {2, 3}, {3, 2}, {3, 0},
       {3, 3}, {3, 4}, {4, 5}, {5, 1}, {5, 5}, {6, 0}, {6, 1}, {6, 2},
       {7, 2}, {7, 4}, {7, 0}, {7, 3}, {7, 5}, {8, 3}, {8, 2}, {8, 0},
       {9, 5}, {10, 1}, {10, 5}, {11, 4}, {11, 1}, {11, 2}, {11, 4},
       {12, 3}, {12, 0}, {13, 5}, {14, 3}, {15, 1}, {15, 4}, {15, 0},
       {15, 2}});
  EXPECT_EQ(got, expected);
}

TEST(NoiseGolden, CompositeP03S20Seed99) {
  const SpikeRaster in = golden_input();
  std::vector<NoiseModelPtr> models;
  models.push_back(noise::make_deletion(0.3));
  models.push_back(noise::make_jitter(2.0));
  const noise::CompositeNoise composite(std::move(models));
  Rng rng(99);
  const auto got = composite.apply(in, rng).to_events();
  const auto expected = ev({{0, 0}, {0, 2}, {0, 5}, {1, 1}, {2, 3}, {2, 3},
                            {3, 1}, {3, 2}, {5, 1}, {6, 5}, {6, 5}, {6, 0},
                            {9, 3}, {9, 0}, {10, 5}, {11, 3}, {12, 1},
                            {12, 4}, {12, 4}, {14, 1}, {14, 0}, {15, 5},
                            {15, 2}});
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Golden simulator logits captured from the PR 2 implementation on a tiny
// fixed model: clean logits and noisy logits under a fixed stream. 1e-5
// relative tolerance absorbs libm variation across platforms; on the
// capture platform the match is bit-exact.

SnnModel golden_model() {
  SnnModel model(Shape{5});
  Tensor w1{Shape{4, 5}};
  for (std::size_t i = 0; i < 20; ++i) {
    w1[i] = 0.07f * static_cast<float>((i * 13) % 11) - 0.2f;
  }
  Tensor w2{Shape{3, 4}};
  for (std::size_t i = 0; i < 12; ++i) {
    w2[i] = 0.11f * static_cast<float>((i * 7) % 9) - 0.3f;
  }
  model.add_stage("h", std::make_unique<DenseTopology>(w1));
  model.add_stage("r", std::make_unique<DenseTopology>(w2));
  return model;
}

struct SchemeGolden {
  Coding coding;
  std::vector<float> clean;
  std::size_t clean_spikes;
  std::vector<float> noisy;
  std::size_t noisy_spikes;
};

TEST(SimulatorGolden, LogitsMatchPreRewriteCapture) {
  const SnnModel model = golden_model();
  const Tensor img{Shape{5}, {0.9f, 0.45f, 0.2f, 0.7f, 0.05f}};
  const std::vector<SchemeGolden> goldens{
      {Coding::kRate,
       {8.61200333f, 12.4400034f, 3.59599805f}, 231,
       {5.21200037f, 7.54399776f, 2.74799919f}, 168},
      {Coding::kPhase,
       {2.75643682f, 3.98877978f, 1.16521859f}, 291,
       {1.80970299f, 3.14774942f, 1.95665622f}, 228},
      {Coding::kBurst,
       {20.9360008f, 30.2639942f, 8.70399761f}, 246,
       {9.66400051f, 14.2839985f, 3.85599899f}, 174},
      {Coding::kTtfs,
       {0.389295906f, 0.560586095f, 0.164383575f}, 8,
       {0.312924981f, 0.466341138f, 0.213130966f}, 8},
      {Coding::kTtas,
       {0.389295906f, 0.560586154f, 0.16438356f}, 40,
       {0.152665257f, 0.249462023f, 0.102420419f}, 33},
  };
  for (const SchemeGolden& g : goldens) {
    const auto scheme = g.coding == Coding::kTtas ? core::make_ttas(5)
                                                  : coding::make_scheme(g.coding);
    const SimResult clean = simulate(SimRequest{&model, scheme.get()}, img);
    ASSERT_EQ(clean.logits.numel(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(clean.logits[i], g.clean[i], 1e-5 * std::abs(g.clean[i]))
          << coding_name(g.coding) << " clean logit " << i;
    }
    EXPECT_EQ(clean.total_spikes, g.clean_spikes) << coding_name(g.coding);

    Rng rng = Rng::for_stream(777, 3);
    const auto noise = noise::make_deletion_jitter(0.25, 1.0);
    const SimResult noisy =
        simulate(SimRequest{&model, scheme.get(), noise.get(), &rng}, img);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(noisy.logits[i], g.noisy[i], 1e-5 * std::abs(g.noisy[i]))
          << coding_name(g.coding) << " noisy logit " << i;
    }
    EXPECT_EQ(noisy.total_spikes, g.noisy_spikes) << coding_name(g.coding);
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse must not change results: a reused workspace + result
// produces the same outputs as fresh ones for every scheme.

TEST(SimulatorWorkspace, ReuseIsBitIdenticalToFresh) {
  const SnnModel model = golden_model();
  const Tensor img{Shape{5}, {0.9f, 0.45f, 0.2f, 0.7f, 0.05f}};
  const auto noise = noise::make_deletion_jitter(0.2, 0.8);
  SimWorkspace ws;
  SimResult reused;
  for (const Coding c : {Coding::kRate, Coding::kPhase, Coding::kBurst,
                         Coding::kTtfs, Coding::kTtas}) {
    const auto scheme =
        c == Coding::kTtas ? core::make_ttas(5) : coding::make_scheme(c);
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      Rng rng1 = Rng::for_stream(31337, stream);
      simulate_into(SimRequest{&model, scheme.get(), noise.get(), &rng1, &ws},
                    img, reused);
      Rng rng2 = Rng::for_stream(31337, stream);
      const SimResult fresh =
          simulate(SimRequest{&model, scheme.get(), noise.get(), &rng2}, img);
      EXPECT_EQ(reused.logits, fresh.logits)
          << coding_name(c) << " stream " << stream;
      EXPECT_EQ(reused.total_spikes, fresh.total_spikes);
      EXPECT_EQ(reused.layer_spikes, fresh.layer_spikes);
      EXPECT_EQ(reused.predicted_class, fresh.predicted_class);
    }
  }
}

}  // namespace
}  // namespace tsnn::snn
