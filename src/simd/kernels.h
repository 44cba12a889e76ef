// Runtime-dispatched SIMD kernel layer.
//
// The six hot inner loops of the simulator -- dense fan-out scatter, conv
// tap accumulate, the potential/threshold scan, burst coding's escalating
// fire scan, the in-place noise compaction, and jitter's Gaussian shift
// draw (gauss_shifts) -- plus the axpy building block are leaf functions
// behind a KernelDispatch table of function pointers, the FFmpeg DSP-table
// idiom: callers marshal their state into a plain KernelCtx view and invoke
// through kernels(), and the variant that runs (the scalar reference,
// AVX2, or AVX-512 -- the AVX2 table with 512-bit conv_taps, threshold_fire
// and burst_fire leaves) is chosen once at startup from
// cpu::allowed_features() -- so adding an ISA means adding leaf functions,
// never touching the class hierarchy.
//
// Exactness contract
// ------------------
// Every kernel is BIT-EXACT against the scalar reference: the vector
// variants keep each destination slot's addition order (contributions land
// in batch order) and use separate multiply and add (no FMA contraction),
// so golden pins cannot move when the dispatch changes. No kernel reduces
// across lanes. The simd translation units are compiled with
// -ffp-contract=off so the "scalar" semantics stay scalar under any
// -march. gauss_shifts outputs integers: a vector leaf may approximate its
// transcendentals internally (the avx2 leaf works in single precision),
// within a stated error bound, provided it recomputes with the scalar
// leaf's libm expressions every value that lies within a margin of that
// bound of a rounding boundary -- the integers stay exact.
//
// Ctx buffers should honor kSimdAlign (common/aligned.h) -- the kernels use
// unaligned loads, so alignment is a performance guarantee, not a
// correctness requirement.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tsnn::simd {

// ------------------------------------------------------------ ctx views ----

// Spike i of a batch carries magnitude mag[i * mag_stride]: stride 1 is
// one magnitude per spike (burst coding's ISI-decoded gains), stride 0 one
// magnitude for the whole batch (rate, phase, TTFS and TTAS, whose
// magnitude depends on the step alone), read from mag[0] by every spike.

/// Dense fan-out scatter: for each spike i in batch order,
/// u[j] += m_i * wt[pre[i]*out + j] for all j, m_i = mag[i * mag_stride].
/// `wt` is the {in, out} transposed weight copy (unit-stride rows). Every
/// pre[i] < in has been validated by the caller.
struct DenseScatterCtx {
  const float* wt = nullptr;
  const std::uint32_t* pre = nullptr;
  const float* mag = nullptr;
  std::size_t mag_stride = 1;  ///< 0: mag[0] for every spike
  std::size_t count = 0;  ///< spikes in the batch
  std::size_t out = 0;    ///< fan-out length per spike
  float* u = nullptr;     ///< out accumulators
};

/// One valid kernel tap of a conv input spatial position: which output
/// spatial cell it feeds and which {ky, kx} weight it goes through.
/// (Shared with ConvTopology's precomputed CSR tap tables.)
struct ConvTap {
  std::uint32_t spatial;  ///< oy * out_w + ox
  std::uint32_t wofs;     ///< ky * kernel + kx
};

/// Conv tap accumulate into the transposed {spatial, channel} accumulator:
/// for each spike i (ic = pre[i]/in_hw, sp = pre[i]%in_hw), for each tap of
/// sp, u[tap.spatial*oc ..] += m_i * wt[(ic*k2 + tap.wofs)*oc ..] over all
/// oc channels, m_i = mag[i * mag_stride]. Taps of one spike touch distinct
/// rows, so per-slot addition order is spike order -- bit-exact by
/// construction.
///
/// in_w/in_h are set (nonzero) only when the table describes a 3x3,
/// stride-1, pad-1 conv of an in_h x in_w input. Then an interior input
/// position's nine taps sit at fixed offsets from its own spatial slot,
/// which a vector leaf may use instead of walking the table; the taps and
/// their order are the same either way.
struct ConvTapCtx {
  const float* wt = nullptr;                  ///< {ic, k2, oc} weight copy
  const std::uint32_t* tap_offset = nullptr;  ///< in_hw + 1 CSR offsets
  const ConvTap* taps = nullptr;
  const std::uint32_t* pre = nullptr;
  const float* mag = nullptr;
  std::size_t mag_stride = 1;  ///< 0: mag[0] for every spike
  std::size_t count = 0;
  std::size_t in_hw = 0;  ///< input spatial extent (h*w)
  std::size_t k2 = 0;     ///< kernel*kernel
  std::size_t oc = 0;     ///< output channels (inner vector length)
  std::size_t in_w = 0;   ///< input width of a 3x3/stride-1/pad-1 conv, else 0
  std::size_t in_h = 0;   ///< input height of that conv, else 0
  float* u = nullptr;     ///< {spatial, channel} accumulators
};

// The fire scans read potentials in an accumulator layout of `rows`
// channels x `cols` positions (SynapseTopology::accum_layout): canonical
// neuron j = c*cols + s lives at slot s*rows + c, so rows == 1 is the
// identity layout. A scan visits canonical j = 0..rows*cols in ascending
// order, whatever the layout, and records every neuron that fires into
// `fired` (capacity >= rows*cols) -- fired indices are canonical and
// ascending. A leaf may write anywhere in fired[0..rows*cols) past the
// count it returns (the vector leaves store whole blocks), so `fired` may
// be the room at the end of a train (EventBuffer::append_step).

/// Potential/threshold scan: every neuron with u >= threshold fires. When
/// `subtract`, a firing neuron is drained by threshold in place (the
/// rate/phase soft reset); otherwise u is untouched (the TTFS/TTAS floor
/// scan). Returns the fired count. Bit-exact: each neuron gets the scalar
/// leaf's compare and subtraction, so the result matches the historical
/// per-neuron loop.
struct ThresholdCtx {
  float* u = nullptr;
  std::size_t rows = 1;  ///< layout channels (1 = identity)
  std::size_t cols = 0;  ///< layout positions
  float threshold = 0.0f;
  bool subtract = false;
  std::uint32_t* fired = nullptr;
};

/// Burst coding's escalating fire scan: a neuron whose counter reads k
/// fires where u >= quanta[min(k, cap)], drains that quantum in place and
/// increments k; elsewhere k resets to 0. Counters are indexed like u, by
/// accumulator slot. Returns the fired count. Bit-exact: every neuron gets
/// the scalar leaf's compare, subtraction and counter update.
struct BurstFireCtx {
  float* u = nullptr;
  std::uint32_t* k = nullptr;  ///< per-slot escalation counters
  std::size_t rows = 1;        ///< layout channels (1 = identity)
  std::size_t cols = 0;        ///< layout positions
  const float* quanta = nullptr;  ///< cap + 1 quanta, indexed by exponent
  std::uint32_t cap = 0;
  std::uint32_t* fired = nullptr;
};

/// Box-Muller jitter shifts. Pair i of the uniforms, (u1, u2) = (u[2i],
/// u[2i+1]) with u1 in [1e-300, 1) and u2 in [0, 1), gives
///   r = sqrt(-2 ln u1),  theta = 2 pi u2,
///   out[2i]     = round_shift(0.0 + sigma * (r * cos theta), limit),
///   out[2i + 1] = round_shift(0.0 + sigma * (r * sin theta), limit)
/// -- the shifts two consecutive cache-missing Rng::normal(0, sigma) calls
/// give, in that order. The scalar leaf evaluates exactly those libm
/// expressions.
struct GaussShiftCtx {
  const double* u = nullptr;     ///< 2 * pairs uniforms, (u1, u2) interleaved
  std::size_t pairs = 0;
  double sigma = 0.0;            ///< finite, >= 0
  std::int32_t limit = 0;        ///< saturation bound, >= 0
  std::int32_t* out = nullptr;   ///< 2 * pairs shifts
};

/// The one rounding every jitter shift takes: lround(v) saturated to
/// [-limit, limit]. Unlike a bare std::lround, it is defined for every
/// non-NaN v (x86-64's lround returns LONG_MIN once |v| >= 2^63).
inline std::int32_t round_shift(double v, std::int32_t limit) {
  if (v >= limit) {
    return limit;
  }
  if (v <= -limit) {
    return -limit;
  }
  return static_cast<std::int32_t>(std::lround(v));
}

// ------------------------------------------------------- dispatch table ----

/// Function-pointer table of one ISA variant. All pointers are always
/// populated (a variant may reuse the scalar leaf where vectorizing does
/// not pay).
struct KernelDispatch {
  const char* isa = "scalar";  ///< "scalar", "avx2" or "avx512"
  std::uint32_t features = 0;  ///< cpu::Feature bits this table requires

  void (*dense_scatter)(const DenseScatterCtx&) = nullptr;
  void (*conv_taps)(const ConvTapCtx&) = nullptr;
  std::size_t (*threshold_fire)(const ThresholdCtx&) = nullptr;
  std::size_t (*burst_fire)(const BurstFireCtx&) = nullptr;
  /// y[i] += a * x[i] for i in [0, n) -- elementwise, bit-exact.
  void (*axpy)(float* y, const float* x, float a, std::size_t n) = nullptr;
  /// Keep-mask stream compaction: dst[k++] = src[i] for every i in order
  /// with keep[i] != 0; returns k. dst may alias src when dst <= src (the
  /// in-place EventBuffer compaction). Bit-exact (it moves integers).
  std::size_t (*mask_compact)(const std::uint32_t* src,
                              const std::uint8_t* keep, std::size_t n,
                              std::uint32_t* dst) = nullptr;
  void (*gauss_shifts)(const GaussShiftCtx&) = nullptr;
};

/// The active table: the highest-priority registered table whose features
/// are allowed by cpu::allowed_features() (so TSNN_CPUFLAGS picks the
/// variant), resolved once on first use.
const KernelDispatch& kernels();

/// kernels().isa -- the provenance string benches record next to their
/// numbers.
std::string active_isa();

/// The scalar reference table (always available; the equivalence oracle).
const KernelDispatch& scalar_kernels();

/// Every registered table runnable on this host, best first. The
/// equivalence tests iterate this to cover all selectable variants.
std::vector<const KernelDispatch*> runnable_tables();

/// Table with the given isa name, or nullptr (includes tables the host
/// cannot run -- check features before invoking).
const KernelDispatch* find_table(const std::string& isa);

/// RAII override of the active table, for tests and per-ISA benchmarks.
/// Takes effect process-wide; do not overlap with concurrent simulations.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelDispatch& table);
  ~ScopedKernelOverride();
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelDispatch* saved_;
};

}  // namespace tsnn::simd
