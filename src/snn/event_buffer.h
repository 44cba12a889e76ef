// Flat spike-event buffer -- the hot-path spike-train representation.
//
// An EventBuffer stores one layer's spike train in CSR form: the neuron ids
// of every event in time-major order, and a per-step offset table -- the
// events of step t occupy ids [offsets[t], offsets[t+1]) and, within a
// step, keep their emission order. An event's time is the step whose range
// holds it; no per-event time is stored. Unlike SpikeRaster's
// vector-of-vectors buckets, the storage is flat arrays whose capacity only
// ever grows, so a buffer owned by a reusable SimWorkspace performs zero
// heap allocations once warm -- the FFmpeg buffer-pool discipline applied
// to spike trains.
//
// Producers:
//   * In order -- append_step(t, room, scan) (the fire scans' per-step
//     emission: the scan writes its ids straight into room at the end of
//     the train), push_step(t, ids, n) and push(t, id) at non-decreasing t
//     append ids and advance the offset table as they go, so finalize()
//     only closes the trailing steps and reads no per-event data.
//   * Out of order -- push() accepts any order. The first push earlier than
//     the open step stages a time for every event so far; later pushes
//     stage theirs, and finalize() counting-sorts the ids stably into step
//     order. These staging times are the only per-event times a buffer
//     ever holds, and only until finalize().
//   * One pass -- assign_bursts() emits TTFS/TTAS bursts (one burst per
//     neuron) through one count/prefix-sum/scatter, leaving the state that
//     neuron-major push() + finalize() would.
// Every producer checks its ranges once per call (a reduction over its
// inputs); the throwing path is out of line and raises push()'s message
// for the first event push() would reject.
//
// Consumers read per-step spans (step/step_begin/step_count) or the flat id
// array. Noise models mutate the buffer in place, on ids alone:
// remove_if_not()/remove_by_mask() compact each step and rewrite the
// offsets, and shift_times() moves every event by a per-event shift and
// re-buckets the ids. Both index events in time-major order so RNG draw
// order matches the historical SpikeRaster implementations exactly (fixed
// seeds reproduce bit-identical corruption).
//
// SpikeRaster (spike.h) remains the conversion/reporting type for tests,
// spike_stats, and figure-style analyses; assign_from()/to_raster()
// bridge the two.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "snn/spike.h"

namespace tsnn::snn {

/// Reusable scratch for EventBuffer's counting sorts and scatters, plus the
/// producers' and noise models' staging: TTFS/TTAS first steps, deletion's
/// keep mask, and jitter's uniforms and shifts. Owned by SimWorkspace (and
/// each StageState) so re-bucketing allocates nothing once warm; must not
/// be shared across threads. `neurons` is an aligned_vector because the
/// scatters swap it into the buffer's own (aligned) storage. The staging
/// vectors only grow.
struct EventSortScratch {
  std::vector<std::uint32_t> cursor;       ///< per-step counts and cursors
  aligned_vector<std::uint32_t> neurons;   ///< id scatter destination, swapped in
  aligned_vector<std::int32_t> first;      ///< assign_bursts() first steps
  aligned_vector<std::uint8_t> keep;       ///< remove_by_mask() staging
  aligned_vector<double> uniforms;         ///< jitter's Box-Muller uniforms
  aligned_vector<std::int32_t> shifts;     ///< shift_times() staging
  aligned_vector<std::uint32_t> dest;      ///< shift_times() destination steps
};

/// Flat spike train: time-major neuron ids with per-step CSR offsets.
class EventBuffer {
 public:
  EventBuffer() = default;

  /// Clears and re-dimensions the buffer, keeping allocated capacity.
  void reset(std::size_t num_neurons, std::size_t window);

  std::size_t num_neurons() const { return num_neurons_; }
  std::size_t window() const { return window_; }

  /// Total number of events.
  std::size_t size() const { return neurons_.size(); }
  bool empty() const { return neurons_.empty(); }

  /// Appends a spike of `neuron` at step `t` (bounds-checked). Any order
  /// is accepted; time-ordered appends make finalize() sort-free.
  void push(std::int32_t t, std::uint32_t neuron) {
    check_push_time(t);
    if (neuron >= num_neurons_) [[unlikely]] {
      report_neuron(neuron);
    }
    neurons_.push_back(neuron);
    file_tail(t, 1);
  }

  /// Appends `ids[0..n)` at step `t`, in order -- the train push(t, ids[i])
  /// for each i would leave, with the time checked once and the ids in one
  /// reduction. Throws push()'s message before appending anything; n == 0
  /// is a no-op.
  void push_step(std::int32_t t, const std::uint32_t* ids, std::size_t n);

  /// The fire scans' per-step emission, in place: `scan(out)` writes step
  /// `t`'s ids, ascending, at `out` -- room for `room` ids at the end of the
  /// train -- and returns how many it wrote. Leaves exactly what
  /// push_step(t, ids, n) of the same ids leaves, push()'s messages
  /// included (a rejected step leaves the buffer as it was), but the ids
  /// are never copied, and, since they ascend, the range check is a test of
  /// the last one. The room is default-initialized (common/aligned.h), so
  /// it costs no fill.
  template <typename Scan>
  void append_step(std::int32_t t, std::size_t room, Scan&& scan) {
    const std::size_t base = neurons_.size();
    neurons_.resize(base + room);
    const std::size_t n = scan(neurons_.data() + base);
    neurons_.resize(base + n);
    if (n == 0) {
      return;
    }
    const auto step = static_cast<std::size_t>(t);  // t < 0 wraps past window_
    if (step >= window_ || step < closed_ || neurons_.back() >= num_neurons_)
        [[unlikely]] {
      reject_tail(t, n);
    }
    file_tail(t, n);
  }

  /// Replaces the train with one burst per neuron: neuron ids[k] spikes at
  /// steps first[k], first[k] + 1, ..., first[k] + duration - 1. Leaves
  /// exactly the state reset(num_neurons(), window()), push() of every
  /// burst neuron-major (k ascending, then step) and finalize() leave -- a
  /// finalized train, each step's ids in k order -- through one count,
  /// prefix sum and scatter. The ranges are checked in one reduction
  /// before anything changes; a bad first step or id throws the message
  /// that push sequence would throw first, and leaves the buffer as it
  /// was. `first` and `ids` must not alias `scratch.cursor`.
  void assign_bursts(const std::int32_t* first, const std::uint32_t* ids,
                     std::size_t n, std::size_t duration,
                     EventSortScratch& scratch);

  /// Closes the offset table (and, after out-of-order pushes, buckets the
  /// staged events by time, stable within a step). Idempotent; required
  /// before per-step access. On an in-order train it touches O(window)
  /// offsets and no event.
  void finalize(EventSortScratch& scratch);
  bool finalized() const { return finalized_; }

  /// Incremental production for the simulator's wavefront: declares step
  /// `steps_closed()` complete, making it readable via step()/step_begin/
  /// step_count before the train is finalized. Requires time-ordered pushes
  /// (every scheme's layer loop emits timestep-major, so this holds by
  /// construction); once a step is closed, push() rejects events landing in
  /// it. finalize() completes the same offset table, so a partially closed
  /// buffer finalizes to the exact same state as a batch-produced one.
  void close_step() {
    TSNN_CHECK_MSG(!staged_ && !finalized_,
                   "close_step requires time-ordered, unfinalized pushes");
    TSNN_CHECK_MSG(closed_ < window_, "all steps already closed");
    ++closed_;
    open_step(closed_, neurons_.size());
  }
  /// Number of leading steps readable on an unfinalized buffer.
  std::size_t steps_closed() const { return closed_; }

  /// One step's events as a pointer span.
  struct StepSpan {
    const std::uint32_t* ids;
    std::size_t count;
  };

  /// Events of step `t`, in emission order. Readable once the buffer is
  /// finalized, or -- for the simulator's wavefront consumers -- as soon
  /// as the producing loop has close_step()ed past `t`. The span form does
  /// the readable check once per step -- the hot loops' shape;
  /// step_begin/step_count are the piecemeal equivalents.
  StepSpan step(std::size_t t) const {
    check_step_readable(t);
    return {neurons_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }
  const std::uint32_t* step_begin(std::size_t t) const {
    check_step_readable(t);
    return neurons_.data() + offsets_[t];
  }
  std::size_t step_count(std::size_t t) const {
    check_step_readable(t);
    return offsets_[t + 1] - offsets_[t];
  }

  /// Flat view of the ids (time-major once finalized).
  const std::uint32_t* neurons() const { return neurons_.data(); }

  /// In-place compaction: keeps exactly the events for which
  /// `keep(time, neuron)` returns true, visiting events in time-major
  /// emission order (the RNG draw-order contract). Stays finalized.
  template <typename Keep>
  void remove_if_not(Keep&& keep) {
    check_finalized();
    std::size_t w = 0;
    std::uint32_t read_begin = offsets_[0];
    for (std::size_t t = 0; t < window_; ++t) {
      const std::uint32_t read_end = offsets_[t + 1];
      offsets_[t] = static_cast<std::uint32_t>(w);
      for (std::uint32_t i = read_begin; i < read_end; ++i) {
        if (keep(static_cast<std::int32_t>(t), neurons_[i])) {
          neurons_[w++] = neurons_[i];
        }
      }
      read_begin = read_end;
    }
    offsets_[window_] = static_cast<std::uint32_t>(w);
    neurons_.resize(w);
  }

  /// Kernelized twin of remove_if_not(): compacts to exactly the events
  /// whose `keep[i]` byte is nonzero, where i indexes the finalized
  /// time-major event stream (size() entries). Callers whose predicate
  /// draws randomness pre-generate the mask in one serial pass -- same
  /// draw order as remove_if_not() -- and the compaction itself runs
  /// through the dispatch table's mask_compact kernel, one step at a time,
  /// moving ids only. Stays finalized.
  void remove_by_mask(const std::uint8_t* keep);

  /// In-place time shift: event i of the finalized time-major stream
  /// (size() entries) moves to step clamp(t_i + shifts[i], 0, window - 1),
  /// then the buffer re-buckets. Events that land in the same step keep
  /// their stream order (stable), matching the historical jitter semantics
  /// of appending to raster buckets in draw order. One pass computes each
  /// event's destination once (into scratch.dest) and counts the steps,
  /// one scatters the ids from the stored steps. Stays finalized.
  void shift_times(const std::int32_t* shifts, EventSortScratch& scratch);

  /// Conversion bridges to the reporting type.
  void assign_from(const SpikeRaster& raster, EventSortScratch& scratch);
  SpikeRaster to_raster() const;

 private:
  void check_finalized() const {
    TSNN_CHECK_MSG(finalized_, "EventBuffer not finalized");
  }
  void check_push_time(std::int32_t t) const {
    if (t < 0 || static_cast<std::size_t>(t) >= window_ ||
        static_cast<std::size_t>(t) < closed_) [[unlikely]] {
      report_push_time(t);
    }
  }
  void check_step_readable(std::size_t t) const {
    TSNN_CHECK_MSG(finalized_ || t < closed_,
                   "EventBuffer step " << t << " not finalized or closed");
  }
  // The out-of-line throwing halves of push()'s checks; each throws only
  // if its own condition fails, so push() calls them in its check order.
  [[gnu::noinline, gnu::cold]] void report_push_time(std::int32_t t) const;
  [[gnu::noinline, gnu::cold]] void report_time_in_window(std::int32_t t) const;
  [[gnu::noinline, gnu::cold]] void report_neuron(std::uint32_t neuron) const;

  /// In-order append: steps [open_, t) end at id `end`, and `t` becomes
  /// the open step. Requires t >= open_.
  void open_step(std::size_t t, std::size_t end) {
    while (open_ < t) {
      offsets_[++open_] = static_cast<std::uint32_t>(end);
    }
  }
  /// Files the last n ids appended, all at step `t` (checked): in order,
  /// or staged when `t` is earlier than the open step or the train is
  /// already staged.
  void file_tail(std::int32_t t, std::size_t n) {
    finalized_ = false;
    if (staged_ || static_cast<std::size_t>(t) < open_) {
      stage_tail(t, n);
    } else {
      open_step(static_cast<std::size_t>(t), neurons_.size() - n);
    }
  }
  /// Stages the time `t` of the last n ids, staging every earlier event's
  /// time first if they are the first out-of-order ids.
  void stage_tail(std::int32_t t, std::size_t n);
  /// Drops the last n ids, appended at `t`, and throws the message push()
  /// would throw first for them.
  [[noreturn, gnu::noinline, gnu::cold]] void reject_tail(std::int32_t t,
                                                          std::size_t n);

  std::size_t num_neurons_ = 0;
  std::size_t window_ = 0;
  std::size_t closed_ = 0;  ///< leading steps closed by close_step()
  /// In-order appends go to this step: offsets_[s + 1] is final for every
  /// s < open_, and ids [offsets_[open_], size()) are its events.
  std::size_t open_ = 0;
  bool staged_ = false;     ///< out-of-order: staged_times_ holds every time
  bool finalized_ = false;
  // Aligned so the propagation and compaction kernels stream whole cache
  // lines (see common/aligned.h).
  aligned_vector<std::uint32_t> neurons_;
  aligned_vector<std::uint32_t> offsets_;  ///< window+1 entries
  aligned_vector<std::int32_t> staged_times_;  ///< out-of-order staging only
};

}  // namespace tsnn::snn
