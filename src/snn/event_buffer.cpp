#include "snn/event_buffer.h"

#include <algorithm>
#include <cstdlib>

#include "simd/kernels.h"

namespace tsnn::snn {

void EventBuffer::reset(std::size_t num_neurons, std::size_t window) {
  TSNN_CHECK_MSG(num_neurons > 0, "event buffer needs at least one neuron");
  TSNN_CHECK_MSG(window > 0, "event buffer window must be positive");
  num_neurons_ = num_neurons;
  window_ = window;
  neurons_.clear();
  offsets_.resize(window_ + 1);
  offsets_[0] = 0;
  open_ = 0;
  closed_ = 0;
  finalized_ = false;
}

void EventBuffer::report_time(std::int32_t t) const {
  report_time_in_window(t);
  TSNN_CHECK_MSG(static_cast<std::size_t>(t) >= open_,
                 "event time " << t << " before open step " << open_);
}

void EventBuffer::report_time_in_window(std::int32_t t) const {
  TSNN_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < window_,
                 "event time " << t << " outside window " << window_);
}

void EventBuffer::report_neuron(std::uint32_t neuron) const {
  TSNN_CHECK_MSG(neuron < num_neurons_,
                 "neuron " << neuron << " out of range " << num_neurons_);
}

void EventBuffer::push_step(std::int32_t t, const std::uint32_t* ids,
                            std::size_t n) {
  if (n == 0) {
    return;
  }
  if (!time_appendable(t)) [[unlikely]] {
    report_time(t);
  }
  std::uint32_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, ids[i]);
  }
  if (top >= num_neurons_) [[unlikely]] {
    for (std::size_t i = 0; i < n; ++i) {
      report_neuron(ids[i]);  // throws at the first id out of range
    }
  }
  const std::size_t base = neurons_.size();
  neurons_.insert(neurons_.end(), ids, ids + n);
  open_step(static_cast<std::size_t>(t), base);
}

void EventBuffer::reject_tail(std::int32_t t, std::size_t n) {
  const auto tail = neurons_.end() - static_cast<std::ptrdiff_t>(n);
  const auto bad = std::find_if(tail, neurons_.end(), [this](std::uint32_t id) {
    return id >= num_neurons_;
  });
  const std::uint32_t first_bad = bad == neurons_.end() ? 0 : *bad;
  neurons_.erase(tail, neurons_.end());
  report_time(t);
  report_neuron(first_bad);
  std::abort();  // unreachable: the caller saw a bad time or id
}

void EventBuffer::assign_bursts(const std::int32_t* first,
                                const std::uint32_t* ids, std::size_t n,
                                std::size_t duration,
                                EventSortScratch& scratch) {
  if (duration == 0) {
    n = 0;  // no event at all
  }
  if (n > 0) {
    std::int32_t lo = first[0];
    std::int32_t hi = first[0];
    std::uint32_t top = 0;
    for (std::size_t k = 0; k < n; ++k) {
      lo = std::min(lo, first[k]);
      hi = std::max(hi, first[k]);
      top = std::max(top, ids[k]);
    }
    if (lo < 0 || static_cast<std::size_t>(hi) + duration > window_ ||
        top >= num_neurons_) [[unlikely]] {
      // Walk the events neuron-major; a freshly reset buffer's open step
      // is 0, so only the window and the id can reject an event.
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t b = 0; b < duration; ++b) {
          report_time_in_window(static_cast<std::int32_t>(
              first[k] + static_cast<std::int64_t>(b)));
          report_neuron(ids[k]);
        }
      }
    }
  }
  reset(num_neurons_, window_);
  // Per-step counts as a difference array (each burst adds one to steps
  // [first, first + duration)), prefix-summed into the offset table; the
  // cursors start at each step's offset and the scatter walks the bursts
  // in k order, so each step's ids come out in push order.
  std::vector<std::uint32_t>& cursor = scratch.cursor;
  cursor.assign(window_ + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto f = static_cast<std::size_t>(first[k]);
    ++cursor[f];
    --cursor[f + duration];
  }
  std::uint32_t active = 0;
  for (std::size_t t = 0; t < window_; ++t) {
    active += cursor[t];
    cursor[t] = offsets_[t];
    offsets_[t + 1] = offsets_[t] + active;
  }
  neurons_.resize(offsets_[window_]);
  std::uint32_t* out = neurons_.data();
  for (std::size_t k = 0; k < n; ++k) {
    std::uint32_t* c = cursor.data() + first[k];
    for (std::size_t b = 0; b < duration; ++b) {
      out[c[b]++] = ids[k];
    }
  }
  open_ = window_;
  finalized_ = true;
}

void EventBuffer::shift_times(const std::int32_t* shifts,
                              EventSortScratch& scratch) {
  check_finalized();
  // Event i of step t lands on t + clamp(shifts[i], -t, last - t), which
  // is clamp(t + shifts[i], 0, last) without leaving int32. One pass
  // computes it once per event and counts the steps; one scatters the ids
  // stably, in stream order, from the stored steps.
  const auto last = static_cast<std::int32_t>(window_ - 1);
  const std::size_t n = neurons_.size();
  scratch.dest.resize(n);
  scratch.cursor.assign(window_ + 1, 0);
  std::uint32_t* dest = scratch.dest.data();
  std::uint32_t* cursor = scratch.cursor.data();
  for (std::size_t t = 0; t < window_; ++t) {
    const auto ti = static_cast<std::int32_t>(t);
    const std::uint32_t end = offsets_[t + 1];
    for (std::uint32_t i = offsets_[t]; i < end; ++i) {
      const auto d =
          static_cast<std::uint32_t>(ti + std::clamp(shifts[i], -ti, last - ti));
      dest[i] = d;
      ++cursor[d + 1];
    }
  }
  for (std::size_t t = 0; t < window_; ++t) {
    cursor[t + 1] += cursor[t];
  }
  scratch.neurons.resize(n);
  std::uint32_t* out = scratch.neurons.data();
  const std::uint32_t* ids = neurons_.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[cursor[dest[i]]++] = ids[i];
  }
  // The scatter left each step's end in its cursor.
  std::copy(cursor, cursor + window_, offsets_.begin() + 1);
  neurons_.swap(scratch.neurons);
}

void EventBuffer::remove_by_mask(const std::uint8_t* keep) {
  check_finalized();
  // Per-step left-pack through the mask_compact kernel (in-place safe:
  // the write cursor never passes the read cursor).
  const auto compact = simd::kernels().mask_compact;
  std::size_t w = 0;
  std::uint32_t read_begin = offsets_[0];
  for (std::size_t t = 0; t < window_; ++t) {
    const std::uint32_t read_end = offsets_[t + 1];
    offsets_[t] = static_cast<std::uint32_t>(w);
    w += compact(neurons_.data() + read_begin, keep + read_begin,
                 read_end - read_begin, neurons_.data() + w);
    read_begin = read_end;
  }
  offsets_[window_] = static_cast<std::uint32_t>(w);
  neurons_.resize(w);
}

void EventBuffer::assign_from(const SpikeRaster& raster) {
  reset(raster.num_neurons(), raster.window());
  for (std::size_t t = 0; t < raster.window(); ++t) {
    const std::vector<std::uint32_t>& ids = raster.at(t);
    push_step(static_cast<std::int32_t>(t), ids.data(), ids.size());
  }
  finalize();
}

SpikeRaster EventBuffer::to_raster() const {
  check_finalized();
  SpikeRaster raster(num_neurons_, window_);
  for (std::size_t t = 0; t < window_; ++t) {
    const StepSpan span = step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      raster.add(t, span.ids[i]);
    }
  }
  return raster;
}

}  // namespace tsnn::snn
