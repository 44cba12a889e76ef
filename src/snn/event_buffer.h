// Flat spike-event buffer -- the hot-path spike-train representation.
//
// An EventBuffer stores one layer's spike train as parallel SoA arrays
// (times[], neurons[]) bucketed by timestep through a CSR offset table:
// the events of step t occupy [offsets[t], offsets[t+1]) and, within a
// step, keep their emission order. Unlike SpikeRaster's
// vector-of-vectors buckets, the storage is three flat arrays whose
// capacity only ever grows, so a buffer owned by a reusable SimWorkspace
// performs zero heap allocations once warm -- the FFmpeg buffer-pool
// discipline applied to spike trains.
//
// Producers (coding schemes) push() events in any order and finalize();
// if the pushes were already time-ordered (rate/phase/burst emit
// timestep-major) finalizing just builds the offset table, otherwise a
// stable counting sort re-buckets into caller-provided scratch.
// Consumers read per-step spans (step_begin/step_count) or the flat
// arrays. Noise models mutate the buffer in place: remove_if_not()
// compacts the stream and shift_times() moves every event by a per-event
// shift and re-buckets, both indexing events in time-major order so RNG
// draw order matches the historical SpikeRaster implementations exactly
// (fixed seeds reproduce bit-identical corruption).
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

/// Reusable scratch for EventBuffer::finalize's stable counting sort and
/// assign_from, plus the noise models' staging: deletion's keep mask and
/// jitter's uniforms and shifts. Owned by SimWorkspace so re-bucketing
/// allocates nothing once warm; must not be shared across threads. The
/// scatter destinations are aligned_vectors because finalize() swaps them
/// into the buffer's own (aligned) storage. The staging vectors only grow.
struct EventSortScratch {
  std::vector<std::uint32_t> cursor;       ///< per-step scatter cursors
  aligned_vector<std::int32_t> times;      ///< scatter destination, swapped in
  aligned_vector<std::uint32_t> neurons;   ///< scatter destination, swapped in
  aligned_vector<std::uint8_t> keep;       ///< remove_by_mask() staging
  aligned_vector<double> uniforms;         ///< jitter's Box-Muller uniforms
  aligned_vector<std::int32_t> shifts;     ///< shift_times() staging
};

/// Flat spike train: SoA (time, neuron) events with per-step CSR offsets.
class EventBuffer {
 public:
  EventBuffer() = default;

  /// Clears and re-dimensions the buffer, keeping allocated capacity.
  void reset(std::size_t num_neurons, std::size_t window);

  std::size_t num_neurons() const { return num_neurons_; }
  std::size_t window() const { return window_; }

  /// Total number of events.
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  /// Appends a spike of `neuron` at step `t` (bounds-checked). Any order
  /// is accepted; time-ordered appends make finalize() sort-free.
  void push(std::int32_t t, std::uint32_t neuron) {
    check_push_time(t);
    check_neuron(neuron);
    sorted_ = sorted_ && (times_.empty() || t >= times_.back());
    finalized_ = false;
    times_.push_back(t);
    neurons_.push_back(neuron);
  }

  /// Appends `ids[0..n)` at step `t`, in order -- the arrays and flags
  /// push(t, ids[i]) for each i would leave, with the time checks made once
  /// per call and the neuron range check per id. Throws before appending
  /// anything; n == 0 is a no-op. The fire scans' per-step emission.
  void push_step(std::int32_t t, const std::uint32_t* ids, std::size_t n);

  /// Buckets the events by time (stable within a step) and builds the CSR
  /// offset table. Idempotent; required before per-step access.
  void finalize(EventSortScratch& scratch);
  bool finalized() const { return finalized_; }

  /// Incremental production for the simulator's wavefront: declares step
  /// `steps_closed()` complete, making it readable via step()/step_begin/
  /// step_count before the train is finalized. Requires time-ordered pushes
  /// (every scheme's layer loop emits timestep-major, so this holds by
  /// construction); once a step is closed, push() rejects events landing in
  /// it. finalize() still rebuilds the whole offset table, so a partially
  /// closed buffer finalizes to the exact same state as a batch-produced one.
  void close_step() {
    TSNN_CHECK_MSG(sorted_ && !finalized_,
                   "close_step requires time-ordered, unfinalized pushes");
    TSNN_CHECK_MSG(closed_ < window_, "all steps already closed");
    if (closed_ == 0) {
      offsets_.resize(window_ + 1);
      offsets_[0] = 0;
    }
    offsets_[closed_ + 1] = static_cast<std::uint32_t>(times_.size());
    ++closed_;
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

  /// Flat views over the finalized (time-major) event arrays.
  const std::int32_t* times() const { return times_.data(); }
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
          neurons_[w] = neurons_[i];
          times_[w] = static_cast<std::int32_t>(t);
          ++w;
        }
      }
      read_begin = read_end;
    }
    offsets_[window_] = static_cast<std::uint32_t>(w);
    times_.resize(w);
    neurons_.resize(w);
  }

  /// Kernelized twin of remove_if_not(): compacts to exactly the events
  /// whose `keep[i]` byte is nonzero, where i indexes the finalized
  /// time-major event stream (size() entries). Callers whose predicate
  /// draws randomness pre-generate the mask in one serial pass -- same
  /// draw order as remove_if_not() -- and the compaction itself runs
  /// through the dispatch table's mask_compact kernel. Stays finalized.
  void remove_by_mask(const std::uint8_t* keep);

  /// In-place time shift: event i of the finalized time-major stream
  /// (size() entries) moves to step clamp(t_i + shifts[i], 0, window - 1),
  /// then the buffer re-buckets. Events that land in the same step keep
  /// their stream order (stable), matching the historical jitter semantics
  /// of appending to raster buckets in draw order. One pass clamps and
  /// counts, one scatter re-buckets. Stays finalized.
  void shift_times(const std::int32_t* shifts, EventSortScratch& scratch);

  /// Conversion bridges to the reporting type.
  void assign_from(const SpikeRaster& raster, EventSortScratch& scratch);
  SpikeRaster to_raster() const;

 private:
  void check_finalized() const {
    TSNN_CHECK_MSG(finalized_, "EventBuffer not finalized");
  }
  void check_push_time(std::int32_t t) const {
    TSNN_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < window_,
                   "event time " << t << " outside window " << window_);
    TSNN_CHECK_MSG(static_cast<std::size_t>(t) >= closed_,
                   "event time " << t << " in already-closed step (closed "
                                 << closed_ << ")");
  }
  void check_neuron(std::uint32_t neuron) const {
    TSNN_CHECK_MSG(neuron < num_neurons_,
                   "neuron " << neuron << " out of range " << num_neurons_);
  }
  /// Finishes a finalize: turns the per-step counts in offsets_[t + 1]
  /// into the CSR table and, unless the events are time-ordered already,
  /// scatters them stably into step order.
  void bucket_counted(EventSortScratch& scratch);
  void check_step_readable(std::size_t t) const {
    TSNN_CHECK_MSG(finalized_ || t < closed_,
                   "EventBuffer step " << t << " not finalized or closed");
  }

  std::size_t num_neurons_ = 0;
  std::size_t window_ = 0;
  std::size_t closed_ = 0;  ///< leading steps closed by close_step()
  bool sorted_ = true;     ///< pushes so far are non-decreasing in time
  bool finalized_ = false;
  // Aligned so the propagation and compaction kernels stream whole cache
  // lines (see common/aligned.h).
  aligned_vector<std::int32_t> times_;
  aligned_vector<std::uint32_t> neurons_;
  aligned_vector<std::uint32_t> offsets_;  ///< window+1 entries once finalized
};

}  // namespace tsnn::snn
