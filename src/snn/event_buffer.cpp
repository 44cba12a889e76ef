#include "snn/event_buffer.h"

#include <algorithm>

#include "simd/kernels.h"

namespace tsnn::snn {

void EventBuffer::reset(std::size_t num_neurons, std::size_t window) {
  TSNN_CHECK_MSG(num_neurons > 0, "event buffer needs at least one neuron");
  TSNN_CHECK_MSG(window > 0, "event buffer window must be positive");
  num_neurons_ = num_neurons;
  window_ = window;
  times_.clear();
  neurons_.clear();
  closed_ = 0;
  sorted_ = true;
  finalized_ = false;
}

void EventBuffer::push_step(std::int32_t t, const std::uint32_t* ids,
                            std::size_t n) {
  if (n == 0) {
    return;
  }
  check_push_time(t);
  for (std::size_t i = 0; i < n; ++i) {
    check_neuron(ids[i]);
  }
  sorted_ = sorted_ && (times_.empty() || t >= times_.back());
  finalized_ = false;
  times_.insert(times_.end(), n, t);
  neurons_.insert(neurons_.end(), ids, ids + n);
}

void EventBuffer::finalize(EventSortScratch& scratch) {
  if (finalized_) {
    return;
  }
  // Count events per step into the CSR table (offsets_[t+1] holds the
  // count of step t before the prefix sum).
  offsets_.assign(window_ + 1, 0);
  for (const std::int32_t t : times_) {
    ++offsets_[static_cast<std::size_t>(t) + 1];
  }
  bucket_counted(scratch);
}

void EventBuffer::shift_times(const std::int32_t* shifts,
                              EventSortScratch& scratch) {
  check_finalized();
  const auto last = static_cast<std::int64_t>(window_) - 1;
  offsets_.assign(window_ + 1, 0);
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const auto t = static_cast<std::int32_t>(
        std::clamp<std::int64_t>(std::int64_t{times_[i]} + shifts[i], 0, last));
    times_[i] = t;
    ++offsets_[static_cast<std::size_t>(t) + 1];
  }
  sorted_ = false;
  bucket_counted(scratch);
}

void EventBuffer::bucket_counted(EventSortScratch& scratch) {
  for (std::size_t t = 0; t < window_; ++t) {
    offsets_[t + 1] += offsets_[t];
  }
  if (!sorted_) {
    // Stable counting-sort scatter through per-step cursors; destinations
    // are swapped in so repeated finalizes recycle the same storage.
    scratch.cursor.assign(offsets_.begin(), offsets_.end() - 1);
    scratch.times.resize(times_.size());
    scratch.neurons.resize(neurons_.size());
    for (std::size_t i = 0; i < times_.size(); ++i) {
      const std::uint32_t pos = scratch.cursor[static_cast<std::size_t>(times_[i])]++;
      scratch.times[pos] = times_[i];
      scratch.neurons[pos] = neurons_[i];
    }
    times_.swap(scratch.times);
    neurons_.swap(scratch.neurons);
    sorted_ = true;
  }
  closed_ = 0;  // incremental closes are subsumed by the full offset table
  finalized_ = true;
}

void EventBuffer::remove_by_mask(const std::uint8_t* keep) {
  check_finalized();
  // Per-step left-pack through the mask_compact kernel (in-place safe:
  // the write cursor never passes the read cursor), then re-stamp the
  // surviving times from the step index -- the same post-state as
  // remove_if_not() with an equivalent predicate.
  const auto compact = simd::kernels().mask_compact;
  std::size_t w = 0;
  std::uint32_t read_begin = offsets_[0];
  for (std::size_t t = 0; t < window_; ++t) {
    const std::uint32_t read_end = offsets_[t + 1];
    offsets_[t] = static_cast<std::uint32_t>(w);
    const std::size_t kept =
        compact(neurons_.data() + read_begin, keep + read_begin,
                read_end - read_begin, neurons_.data() + w);
    std::fill(times_.begin() + static_cast<std::ptrdiff_t>(w),
              times_.begin() + static_cast<std::ptrdiff_t>(w + kept),
              static_cast<std::int32_t>(t));
    w += kept;
    read_begin = read_end;
  }
  offsets_[window_] = static_cast<std::uint32_t>(w);
  times_.resize(w);
  neurons_.resize(w);
}

void EventBuffer::assign_from(const SpikeRaster& raster,
                              EventSortScratch& scratch) {
  reset(raster.num_neurons(), raster.window());
  for (std::size_t t = 0; t < raster.window(); ++t) {
    for (const std::uint32_t neuron : raster.at(t)) {
      push(static_cast<std::int32_t>(t), neuron);
    }
  }
  finalize(scratch);
}

SpikeRaster EventBuffer::to_raster() const {
  check_finalized();
  SpikeRaster raster(num_neurons_, window_);
  for (std::size_t t = 0; t < window_; ++t) {
    const std::uint32_t* ids = step_begin(t);
    const std::size_t n = step_count(t);
    for (std::size_t i = 0; i < n; ++i) {
      raster.add(t, ids[i]);
    }
  }
  return raster;
}

}  // namespace tsnn::snn
