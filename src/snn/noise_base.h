// Spike-noise model interface.
//
// Noise transforms a spike train into a corrupted spike train. Following the
// paper (SS II-B), TSNN models neuromorphic-device noise at the level of
// noisy output spikes -- deletion and jitter -- applied to every layer's
// output train including the input encoder's.
//
// The hot path is apply_inplace(): the simulator hands each stage's
// EventBuffer to the noise model, which corrupts it in place (deletion
// compacts the stream, jitter rewrites times and re-buckets) using only
// the caller's scratch -- no allocation once the workspace is warm. Every
// model implements both entry points: the raster-based apply() is the
// reference for tests and analyses, and both visit events in time-major
// emission order, so for a fixed seed they draw the same randomness and
// produce identical corruption.
#pragma once

#include <memory>
#include <string>

#include "common/rng.h"
#include "snn/event_buffer.h"
#include "snn/spike.h"

namespace tsnn::snn {

/// Abstract spike-train corruption.
class NoiseModel {
 public:
  virtual ~NoiseModel() = default;

  /// Returns the corrupted train. Implementations draw randomness from
  /// `rng` only, so a fixed seed reproduces the exact corruption.
  virtual SpikeRaster apply(const SpikeRaster& in, Rng& rng) const = 0;

  /// Corrupts the finalized train `events` in place (hot path), staging
  /// through `scratch` only, so a warm workspace allocates nothing. Must
  /// consume `rng` in the same order as apply() -- events visited
  /// time-major -- so fixed-seed results are identical across the two
  /// entry points.
  virtual void apply_inplace(EventBuffer& events, EventSortScratch& scratch,
                             Rng& rng) const = 0;

  /// Human-readable description ("deletion(p=0.5)").
  virtual std::string name() const = 0;
};

using NoiseModelPtr = std::unique_ptr<NoiseModel>;

}  // namespace tsnn::snn
