#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace tsnn {

namespace {

/// splitmix64: used to expand the user seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step: returns the next output and advances `s`.
/// operator() and keep_mask() share it, so a batch draws the same stream.
inline std::uint64_t xoshiro_next(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// bernoulli()'s and keep_mask()'s one precondition, one message.
void check_probability(double p) {
  TSNN_CHECK_MSG(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]: " << p);
}

/// The two halves of one Box-Muller transform; normal() and
/// discard_normals() share them so a discarded pair caches the exact sine
/// normal() would have.
double box_muller_radius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }
double box_muller_theta(double u2) { return 2.0 * std::numbers::pi * u2; }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

Rng::result_type Rng::operator()() { return xoshiro_next(state_); }

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TSNN_CHECK_MSG(lo <= hi, "uniform bounds inverted: [" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  TSNN_CHECK_MSG(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TSNN_CHECK_MSG(lo <= hi, "uniform_int bounds inverted");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

void Rng::box_muller_uniforms(double& u1, double& u2) {
  // Avoid log(0) by nudging u1 away from zero.
  u1 = uniform();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  u2 = uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  box_muller_uniforms(u1, u2);
  const double radius = box_muller_radius(u1);
  const double theta = box_muller_theta(u2);
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  TSNN_CHECK_MSG(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

bool Rng::take_cached_normal(double& z) {
  if (!has_cached_normal_) {
    return false;
  }
  has_cached_normal_ = false;
  z = cached_normal_;
  return true;
}

void Rng::uniform_pairs(std::size_t pairs, double* out) {
  TSNN_CHECK_MSG(!has_cached_normal_,
                 "uniform_pairs with a cached normal; take it first");
  for (std::size_t i = 0; i < pairs; ++i) {
    box_muller_uniforms(out[2 * i], out[2 * i + 1]);
  }
}

void Rng::discard_normals(std::size_t n) {
  if (n == 0) {
    return;
  }
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // A full pair is two raw draws (box_muller_uniforms' nudge consumes none).
  for (std::size_t i = 0; i < n / 2 * 2; ++i) {
    (*this)();
  }
  if (n % 2 == 1) {
    double u1 = 0.0;
    double u2 = 0.0;
    box_muller_uniforms(u1, u2);
    cached_normal_ = box_muller_radius(u1) * std::sin(box_muller_theta(u2));
    has_cached_normal_ = true;
  }
}

bool Rng::bernoulli(double p) {
  check_probability(p);
  return uniform() < p;
}

void Rng::keep_mask(double p, std::size_t n, std::uint8_t* keep) {
  check_probability(p);
  // bernoulli(p) is uniform() < p, i.e. (r >> 11) * 2^-53 < p. Scaling by
  // a power of two is exact and r >> 11 is an integer, so that is
  // (r >> 11) < ceil(p * 2^53): one integer compare per draw. The state
  // lives in locals because stores through `keep` may alias the members.
  const auto bound = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  std::uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
  for (std::size_t i = 0; i < n; ++i) {
    keep[i] = (xoshiro_next(s) >> 11) >= bound ? 1 : 0;
  }
  std::copy(s, s + 4, state_);
}

Rng Rng::split() {
  return Rng((*this)());
}

Rng Rng::for_stream(std::uint64_t base_seed, std::uint64_t stream_index) {
  // Decorrelate the base, then fold the stream index in through a second
  // splitmix64 round so neighbouring indices land on unrelated seeds.
  std::uint64_t x = base_seed;
  const std::uint64_t base = splitmix64(x);
  x = base ^ (stream_index * 0xD2B74407B1CE6E93ULL + 0x8BB84B93962EACC9ULL);
  return Rng(splitmix64(x));
}

}  // namespace tsnn
