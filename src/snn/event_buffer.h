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
// Producers fill a train in step order:
//   * Step appends -- append_step(t, room, scan) (the fire scans' per-step
//     emission: the scan writes its ids straight into room at the end of
//     the train) and push_step(t, ids, n) append ids at the open step or a
//     later one and advance the offset table as they go; finalize() closes
//     the trailing steps and reads no event. A non-empty append to a step
//     before the open step -- any step of a finalized train -- throws and
//     leaves the train as it was.
//   * One pass -- assign_bursts() replaces the train with TTFS/TTAS bursts
//     (one burst per neuron) through one count/prefix-sum/scatter, and
//     assign_from() with a SpikeRaster's.
// Every producer checks its ranges once per call (a reduction over its
// inputs); the throwing path is out of line and raises the message of the
// first bad event, checking its time before its id.
//
// Consumers read per-step spans (step(t)) or the flat id array. Noise
// models mutate the buffer in place, on ids alone: remove_by_mask()
// compacts each step and rewrites the offsets, and shift_times() moves
// every event by a per-event shift and re-buckets the ids. Both index
// events in time-major order so RNG draw order matches the historical
// SpikeRaster implementations exactly (fixed seeds reproduce bit-identical
// corruption).
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

/// Reusable scratch for EventBuffer's scatters (assign_bursts, shift_times),
/// plus the producers' and noise models' staging: TTFS/TTAS first steps,
/// deletion's keep mask, and jitter's uniforms and shifts. Owned by
/// SimWorkspace (and each StageState) so re-bucketing allocates nothing
/// once warm; must not be shared across threads. `neurons` is an
/// aligned_vector because the scatters swap it into the buffer's own
/// (aligned) storage. The staging vectors only grow.
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

  /// Clears and re-dimensions the buffer, keeping allocated capacity; the
  /// train reopens at step 0.
  void reset(std::size_t num_neurons, std::size_t window);

  std::size_t num_neurons() const { return num_neurons_; }
  std::size_t window() const { return window_; }

  /// Total number of events.
  std::size_t size() const { return neurons_.size(); }
  bool empty() const { return neurons_.empty(); }

  /// Appends `ids[0..n)` at step `t`, in order, with the time checked once
  /// and the ids in one reduction. `t` must lie in the window and at or
  /// after the open step (the step appends go to, which `t` becomes); a
  /// bad time or id throws before anything is appended. n == 0 is a no-op.
  void push_step(std::int32_t t, const std::uint32_t* ids, std::size_t n);

  /// The fire scans' per-step emission, in place: `scan(out)` writes step
  /// `t`'s ids, ascending, at `out` -- room for `room` ids at the end of the
  /// train -- and returns how many it wrote. Leaves exactly what
  /// push_step(t, ids, n) of the same ids leaves, its messages included (a
  /// rejected step leaves the buffer as it was), but the ids are never
  /// copied, and, since they ascend, the range check is a test of the last
  /// one. The room is default-initialized (common/aligned.h), so it costs
  /// no fill.
  template <typename Scan>
  void append_step(std::int32_t t, std::size_t room, Scan&& scan) {
    const std::size_t base = neurons_.size();
    neurons_.resize(base + room);
    const std::size_t n = scan(neurons_.data() + base);
    neurons_.resize(base + n);
    if (n == 0) {
      return;
    }
    if (!time_appendable(t) || neurons_.back() >= num_neurons_) [[unlikely]] {
      reject_tail(t, n);
    }
    open_step(static_cast<std::size_t>(t), base);
  }

  /// Replaces the train with one burst per neuron: neuron ids[k] spikes at
  /// steps first[k], first[k] + 1, ..., first[k] + duration - 1. Leaves a
  /// finalized train whose steps hold their ids in k order -- what
  /// assign_from() of a SpikeRaster filled neuron-major (k ascending, then
  /// step) leaves -- through one count, prefix sum and scatter. The ranges
  /// are checked in one reduction before anything changes; the first bad
  /// burst event in that neuron-major order throws the message a freshly
  /// reset buffer's push_step of that one event throws, and the buffer
  /// keeps the train it held. `first` and `ids` must not alias
  /// `scratch.cursor`.
  void assign_bursts(const std::int32_t* first, const std::uint32_t* ids,
                     std::size_t n, std::size_t duration,
                     EventSortScratch& scratch);

  /// Closes the offset table: every step becomes readable and the train
  /// takes no further append. Idempotent; touches O(window) offsets and no
  /// event.
  void finalize() {
    open_step(window_, neurons_.size());
    closed_ = 0;  // incremental closes are subsumed by the full offset table
    finalized_ = true;
  }
  bool finalized() const { return finalized_; }

  /// Incremental production for the simulator's wavefront: declares step
  /// `steps_closed()` complete, making it readable via step() before the
  /// train is finalized, and moves the open step past it (so later appends
  /// to it throw). finalize() completes the same offset table, so a
  /// partially closed buffer finalizes to the exact same state as a
  /// batch-produced one.
  void close_step() {
    TSNN_CHECK_MSG(!finalized_, "close_step on a finalized EventBuffer");
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
  /// as the producing loop has close_step()ed past `t`.
  StepSpan step(std::size_t t) const {
    TSNN_CHECK_MSG(finalized_ || t < closed_,
                   "EventBuffer step " << t << " not finalized or closed");
    return {neurons_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }

  /// Flat view of the ids (time-major once finalized).
  const std::uint32_t* neurons() const { return neurons_.data(); }

  /// In-place compaction: keeps exactly the events whose `keep[i]` byte is
  /// nonzero, where i indexes the finalized time-major event stream
  /// (size() entries). Callers whose predicate draws randomness
  /// pre-generate the mask in one serial pass in that order (the RNG
  /// draw-order contract); the compaction runs through the dispatch
  /// table's mask_compact kernel, one step at a time, moving ids only.
  /// Stays finalized.
  void remove_by_mask(const std::uint8_t* keep);

  /// In-place time shift: event i of the finalized time-major stream
  /// (size() entries) moves to step clamp(t_i + shifts[i], 0, window - 1),
  /// then the buffer re-buckets. Events that land in the same step keep
  /// their stream order (stable), matching the historical jitter semantics
  /// of appending to raster buckets in draw order. One pass computes each
  /// event's destination once (into scratch.dest) and counts the steps,
  /// one scatters the ids from the stored steps. Stays finalized.
  void shift_times(const std::int32_t* shifts, EventSortScratch& scratch);

  /// Conversion bridges to the reporting type: assign_from() replaces the
  /// train with the raster's, finalized.
  void assign_from(const SpikeRaster& raster);
  SpikeRaster to_raster() const;

 private:
  void check_finalized() const {
    TSNN_CHECK_MSG(finalized_, "EventBuffer not finalized");
  }
  /// True when step `t` lies in the window, at or after the open step.
  bool time_appendable(std::int32_t t) const {
    const auto step = static_cast<std::size_t>(t);  // t < 0 wraps past window_
    return step < window_ && step >= open_;
  }
  // The out-of-line throwing halves of the range checks; each throws only
  // if its own condition fails, so callers chain them in check order.
  [[gnu::noinline, gnu::cold]] void report_time(std::int32_t t) const;
  [[gnu::noinline, gnu::cold]] void report_time_in_window(std::int32_t t) const;
  [[gnu::noinline, gnu::cold]] void report_neuron(std::uint32_t neuron) const;

  /// Steps [open_, t) end at id `end`, and `t` becomes the open step.
  /// Requires t >= open_.
  void open_step(std::size_t t, std::size_t end) {
    while (open_ < t) {
      offsets_[++open_] = static_cast<std::uint32_t>(end);
    }
  }
  /// Drops the last n ids, appended at `t`, and throws the message
  /// push_step() would throw for them.
  [[noreturn, gnu::noinline, gnu::cold]] void reject_tail(std::int32_t t,
                                                          std::size_t n);

  std::size_t num_neurons_ = 0;
  std::size_t window_ = 0;
  std::size_t closed_ = 0;  ///< leading steps closed by close_step()
  /// Appends go to this step or a later one: offsets_[s + 1] is final for
  /// every s < open_, and ids [offsets_[open_], size()) are its events.
  /// closed_ <= open_ always, and a finalized train has open_ == window_.
  std::size_t open_ = 0;
  bool finalized_ = false;
  // Aligned so the propagation and compaction kernels stream whole cache
  // lines (see common/aligned.h).
  aligned_vector<std::uint32_t> neurons_;
  aligned_vector<std::uint32_t> offsets_;  ///< window+1 entries
};

}  // namespace tsnn::snn
