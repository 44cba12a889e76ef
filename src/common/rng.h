// Deterministic random number generation for TSNN.
//
// All stochastic components (dataset synthesis, weight init, dropout, noise
// injection) draw from tsnn::Rng so that experiments are reproducible from a
// single seed. Rng wraps xoshiro256** -- fast, high-quality, and independent
// of the standard library's unspecified distributions (we implement our own
// uniform/normal/bernoulli so results are bit-identical across platforms --
// for normal(), across platforms with the same libm: Box-Muller calls the
// platform's log, sin and cos).
//
// The batched members -- uniform_pairs(), discard_normals() and
// keep_mask() -- are stream-compatible with their one-at-a-time
// counterparts: a batch takes the same raw draws in the same order and
// leaves the same generator state, so a hot loop can switch to one
// without moving any fixed-seed result.
//
// Stream seeding contract
// -----------------------
// Batch work (notably snn::evaluate) must NOT thread one shared Rng& through
// its items: that makes every item's randomness depend on how many draws the
// previous items consumed, so results change with evaluation order, with
// subsetting, and with any attempt to parallelize. Instead, each independent
// work item i of a batch seeded with `base_seed` uses its own generator
//
//   Rng rng = Rng::for_stream(base_seed, i);
//
// for_stream mixes (base_seed, stream_index) through splitmix64 into a fresh
// xoshiro state, giving decorrelated streams that are a pure function of the
// pair -- image i sees the same noise no matter the thread count, the batch
// ordering, or which other images are evaluated alongside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsnn {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to standard
/// algorithms (e.g. std::shuffle), though TSNN code prefers the explicit
/// distribution members below for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; distinct seeds give independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller: each pair of uniforms (u1, u2) gives
  /// r cos(theta), returned, and r sin(theta), cached for the next call.
  /// Deterministic for a given libm.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  // Batched normals. A caller that draws n normals in one batch, with the
  // same stream effect as n normal() calls, goes: take_cached_normal() for
  // the first value; uniform_pairs() for the next (n - taken) / 2 pairs,
  // transformed as normal() would (r cos theta first, then r sin theta);
  // and, for an odd remainder, one normal() call, which leaves the last
  // pair's exact sine cached as n normal() calls would. An empty batch
  // touches nothing, a cached value included. A caller that needs none of
  // the values calls discard_normals(n) instead.

  /// Moves a cached normal() value into `z` and returns true; false (z
  /// untouched) if nothing is cached.
  bool take_cached_normal(double& z);

  /// Writes the uniforms of the next `pairs` Box-Muller pairs to out[0 ..
  /// 2 * pairs), (u1, u2) interleaved, u1 already nudged to >= 1e-300:
  /// exactly what `pairs` cache-missing normal() calls consume, in order.
  /// Requires an empty cache (take_cached_normal() first).
  void uniform_pairs(std::size_t pairs, double* out);

  /// Leaves the generator exactly as `n` normal() calls would -- cache
  /// flag, cached value and raw state -- without computing the values: a
  /// cached normal counts as the first, each full pair is two raw draws,
  /// and an odd remainder draws one more pair and caches its sine, the only
  /// libm work. n = 0 touches nothing.
  void discard_normals(std::size_t n);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Batched complement of bernoulli(): keep[i] = !bernoulli(p) for i in
  /// [0, n), in order -- the same draws, generator state and bytes as n
  /// bernoulli(p) calls, from one inlined loop. p is checked once, before
  /// any draw, with bernoulli()'s message. Deletion's keep mask.
  void keep_mask(double p, std::size_t n, std::uint8_t* keep);

  /// Derives an independent child generator; useful for giving each
  /// subsystem its own stream that does not perturb the others.
  Rng split();

  /// Deterministic per-item stream: the generator for work item
  /// `stream_index` of a batch seeded with `base_seed`. Pure function of the
  /// pair, so parallel and serial evaluation see identical randomness (see
  /// the stream seeding contract above).
  static Rng for_stream(std::uint64_t base_seed, std::uint64_t stream_index);

  /// Fisher-Yates shuffle of `v` using this generator.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  /// The uniforms of one Box-Muller pair, u1 kept off log(0).
  void box_muller_uniforms(double& u1, double& u2);

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace tsnn
