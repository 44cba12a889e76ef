#include "noise/deletion.h"

#include "common/error.h"
#include "common/string_util.h"

namespace tsnn::noise {

DeletionNoise::DeletionNoise(double p) : p_(p) {
  TSNN_CHECK_MSG(p_ >= 0.0 && p_ <= 1.0, "deletion probability out of [0,1]: " << p_);
}

snn::SpikeRaster DeletionNoise::apply(const snn::SpikeRaster& in, Rng& rng) const {
  if (p_ == 0.0) {
    return in;
  }
  snn::SpikeRaster out(in.num_neurons(), in.window());
  for (std::size_t t = 0; t < in.window(); ++t) {
    for (const std::uint32_t neuron : in.at(t)) {
      if (!rng.bernoulli(p_)) {
        out.add(t, neuron);
      }
    }
  }
  return out;
}

void DeletionNoise::apply_inplace(snn::EventBuffer& events,
                                  snn::EventSortScratch& scratch,
                                  Rng& rng) const {
  if (p_ == 0.0) {
    return;
  }
  // Same event visit order and draw sequence as apply() -- time-major,
  // emission order within a step, which is exactly the finalized stream
  // order -- staged as a keep mask in one batched draw (the bytes and
  // stream of one bernoulli() per event), so the compaction itself can run
  // through the SIMD dispatch table (EventBuffer::remove_by_mask).
  const std::size_t n = events.size();
  scratch.keep.resize(n);
  rng.keep_mask(p_, n, scratch.keep.data());
  events.remove_by_mask(scratch.keep.data());
}

std::string DeletionNoise::name() const {
  return "deletion(p=" + str::format_fixed(p_, 2) + ")";
}

}  // namespace tsnn::noise
