// Synaptic connectivity between two spiking layers.
//
// A SynapseTopology answers one question efficiently: when presynaptic
// neuron `pre` delivers post-synaptic current of magnitude `m`, which
// membrane potentials increase by how much? Conv, dense, and pooling
// connectivity share converted DNN weights through this interface, so the
// simulator is topology-agnostic and event-driven (cost scales with spike
// count, not layer size).
//
// Three entry points exist: accumulate() applies a single spike and is the
// readable reference implementation; propagate_accum() applies one
// timestep's spikes at once (a SpikeSpan: an EventBuffer step charged at
// one magnitude, or at one magnitude per spike) through cache-resident
// kernels (transposed weights for dense, precomputed tap
// tables for conv, a pre->post map for pooling) and is what the per-step
// hot loops call; and propagate_train() applies a whole time-major train,
// step after step, for the barrier stages (TTFS/TTAS) that charge their
// full input window in one call. See docs/ARCHITECTURE.md "Hot path &
// batched propagation".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "simd/kernels.h"
#include "snn/event_buffer.h"
#include "tensor/tensor.h"

namespace tsnn::snn {

/// An owned batch of spikes assembled spike by spike, each at its own
/// magnitude (tests and benchmarks); it converts to a SpikeSpan at stride 1.
/// Duplicate `pre` entries are allowed and their contributions sum.
class SpikeBatch {
 public:
  SpikeBatch() = default;

  void clear() {
    pre_.clear();
    mag_.clear();
  }

  /// Appends one spike of presynaptic neuron `pre` at magnitude `m`.
  void add(std::uint32_t pre, float m) {
    pre_.push_back(pre);
    mag_.push_back(m);
  }

  std::size_t size() const { return pre_.size(); }
  bool empty() const { return pre_.empty(); }
  const std::uint32_t* pre() const { return pre_.data(); }
  const float* magnitude() const { return mag_.data(); }

 private:
  std::vector<std::uint32_t> pre_;
  std::vector<float> mag_;
};

/// A non-owning view of one timestep's spikes, the argument of
/// SynapseTopology::propagate_accum(): ids pre[0..count), spike i at
/// magnitude mag[i * mag_stride]. Stride 1 is one magnitude per spike
/// (burst coding's ISI-decoded gains, a SpikeBatch); stride 0 is one
/// magnitude for the whole batch, read from mag[0] -- an EventBuffer step
/// charged as it stands, with nothing copied or filled.
struct SpikeSpan {
  const std::uint32_t* pre;
  const float* mag;
  std::size_t count;
  std::size_t mag_stride;

  SpikeSpan(const std::uint32_t* pre_ids, const float* mags, std::size_t n,
            std::size_t stride)
      : pre(pre_ids), mag(mags), count(n), mag_stride(stride) {}
  /*implicit*/ SpikeSpan(const SpikeBatch& batch)
      : SpikeSpan(batch.pre(), batch.magnitude(), batch.size(), 1) {}

  /// Step `span` of a train, every spike at `*m`.
  static SpikeSpan uniform(const EventBuffer::StepSpan& span, const float* m) {
    return {span.ids, m, span.count, 0};
  }
};

/// Layout of a topology's *internal* potential accumulator, used by the
/// propagate_accum() hot path: `rows` channels x `cols` positions, with
/// canonical postsynaptic neuron j = c*cols + s at accumulator slot
/// s*rows + c. rows == 1 is the identity layout; ConvTopology keeps
/// potentials as {spatial, channel} (rows = out channels) so its spike
/// kernel runs unit-stride over channels. The fire-scan kernels take the
/// two extents directly (simd::ThresholdCtx, simd::BurstFireCtx).
struct AccumLayout {
  std::size_t rows = 1;  ///< canonical-major extent (e.g. out channels)
  std::size_t cols = 0;  ///< canonical-minor extent (e.g. out h*w)

  /// Accumulator slot of canonical neuron j.
  std::size_t slot(std::size_t j) const {
    return rows == 1 ? j : (j % cols) * rows + j / cols;
  }
};

/// Abstract synapse fan-out.
class SynapseTopology {
 public:
  virtual ~SynapseTopology() = default;

  /// Number of presynaptic / postsynaptic neurons.
  virtual std::size_t in_size() const = 0;
  virtual std::size_t out_size() const = 0;

  /// Adds `m`-scaled weights of presynaptic neuron `pre` into `u`
  /// (length out_size(), canonical layout). Reference implementation of one
  /// spike; the hot path goes through propagate_accum().
  virtual void accumulate(std::size_t pre, float m, float* u) const = 0;

  /// Layout of the accumulator that propagate_accum() writes into.
  virtual AccumLayout accum_layout() const { return {1, out_size()}; }

  /// The batched entry point: applies every spike of `batch` into `u`
  /// (out_size() floats laid out per accum_layout()). Slot for slot it adds
  /// the same products in the same order as per-spike accumulate() over
  /// the batch, on every kernel table, so the two agree bit for bit;
  /// ConvTopology runs a batch of canonical_threshold() spikes or more in
  /// ascending neuron order instead (see there).
  virtual void propagate_accum(const SpikeSpan& batch, float* u) const = 0;

  /// A whole finalized train at per-step magnitudes: step t's spikes, each
  /// at magnitude mag[t], for t < train.window(). Slot for slot it adds what
  /// propagate_accum() of each step (SpikeSpan::uniform(train.step(t),
  /// mag + t)) adds, step after step -- bit for bit, the canonical order
  /// included -- with the bounds check, the caches and the kernel table
  /// resolved once.
  virtual void propagate_train(const EventBuffer& train, const float* mag,
                               float* u) const = 0;

  /// Dense reference: y += W x. Used by tests and the activation-transport
  /// analysis; must agree with accumulate() summed over inputs.
  virtual void apply_dense(const float* x, float* y) const = 0;

  /// Multiplies every weight by `c` (weight scaling, TTAS C_A folding).
  /// Not safe concurrently with propagate_accum() -- mutate before
  /// simulating.
  virtual void scale_weights(float c) = 0;

  /// Applies `f` to every distinct weight parameter (static parametric
  /// noise, quantization experiments, inspection). Same thread-safety
  /// caveat as scale_weights().
  virtual void map_weights(const std::function<float(float)>& f) = 0;

  /// Deep copy.
  virtual std::unique_ptr<SynapseTopology> clone() const = 0;
};

/// Weight storage for a topology: either an owned Tensor or an immutable
/// borrowed view into externally kept bytes (a mapped TSNZ artifact --
/// dnn/serialize.h). Reads are uniform across both modes; the first mutable
/// access of a borrowed block materializes an owned copy (copy-on-write),
/// so weight scaling or parametric noise on a loaded model never writes
/// through the file mapping. Copying a borrowed block shares the view (and
/// its keeper); copying an owned block deep-copies, preserving the old
/// Tensor-member clone semantics.
class WeightBlock {
 public:
  WeightBlock() = default;
  /*implicit*/ WeightBlock(Tensor owned) : owned_(std::move(owned)) {}

  /// Borrowed view over `data` (row-major float32, shape_numel(shape)
  /// elements, float-aligned), kept alive by `keeper`.
  static WeightBlock borrow(Shape shape, const float* data,
                            std::shared_ptr<const void> keeper);

  const Shape& shape() const { return view_ ? view_shape_ : owned_.shape(); }
  std::size_t rank() const { return shape().size(); }
  std::size_t dim(std::size_t d) const;
  std::size_t numel() const { return view_ ? view_numel_ : owned_.numel(); }
  const float* data() const { return view_ ? view_ : owned_.data(); }
  bool borrowed() const { return view_ != nullptr; }

  /// Mutable access; a borrowed view is materialized into owned storage
  /// first (copy-on-write), detaching from the keeper.
  float* mutable_data();

  /// Owned deep copy of the contents (inspection, re-serialization).
  Tensor tensor() const;

 private:
  Tensor owned_;
  const float* view_ = nullptr;
  Shape view_shape_;
  std::size_t view_numel_ = 0;
  std::shared_ptr<const void> keeper_;
};

/// Fully connected synapses from a dense DNN layer; weight {out, in}.
class DenseTopology : public SynapseTopology {
 public:
  explicit DenseTopology(WeightBlock weight);

  std::size_t in_size() const override { return weight_.dim(1); }
  std::size_t out_size() const override { return weight_.dim(0); }
  void accumulate(std::size_t pre, float m, float* u) const override;
  void propagate_accum(const SpikeSpan& batch, float* u) const override;
  void propagate_train(const EventBuffer& train, const float* mag,
                       float* u) const override;
  void apply_dense(const float* x, float* y) const override;
  void scale_weights(float c) override;
  void map_weights(const std::function<float(float)>& f) override;
  std::unique_ptr<SynapseTopology> clone() const override;

  /// Owned snapshot of the weights (copies a borrowed view).
  Tensor weight() const { return weight_.tensor(); }
  const WeightBlock& weight_block() const { return weight_; }

 private:
  /// Returns the lazily built {in, out} transposed weight copy, so
  /// per-spike fan-out reads are unit-stride instead of stride `in`.
  /// Thread-safe (double-checked build); invalidated by weight mutation.
  const float* transposed() const;
  void invalidate_cache();

  WeightBlock weight_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_ready_{false};
  mutable aligned_vector<float> weight_t_;  // {in, out}
};

/// Convolutional synapses; weight {out_ch, in_ch, k, k}, stride 1 semantics
/// follow dnn::Conv2d with symmetric zero padding.
class ConvTopology : public SynapseTopology {
 public:
  ConvTopology(WeightBlock weight, std::size_t in_h, std::size_t in_w,
               std::size_t stride, std::size_t pad);

  std::size_t in_size() const override;
  std::size_t out_size() const override;
  void accumulate(std::size_t pre, float m, float* u) const override;
  /// Conv potentials live transposed as {spatial, channel}: the spike
  /// kernel's inner loop becomes a unit-stride multiply-add over channels
  /// (SIMD-friendly) instead of a scatter across {channel, spatial}.
  AccumLayout accum_layout() const override {
    return AccumLayout{out_ch_, out_h_ * out_w_};
  }
  /// A batch of at least canonical_threshold() spikes is summed per
  /// neuron in batch order and run in ascending neuron order, so each slot
  /// adds its contributions in canonical (ic, ky, kx) order -- the order
  /// the pinned outputs were produced in. A smaller batch runs in batch
  /// order. Either way it is one conv_taps call.
  void propagate_accum(const SpikeSpan& batch, float* u) const override;
  /// Decides the canonical order step by step, as propagate_accum() does
  /// for each step's batch.
  void propagate_train(const EventBuffer& train, const float* mag,
                       float* u) const override;
  void apply_dense(const float* x, float* y) const override;
  void scale_weights(float c) override;
  void map_weights(const std::function<float(float)>& f) override;
  std::unique_ptr<SynapseTopology> clone() const override;

  /// Spike count from which propagate_accum() takes the canonical order:
  /// 3/4 of in_size(), at least 1.
  std::size_t canonical_threshold() const {
    return std::max<std::size_t>(1, in_size() * 3 / 4);
  }

  std::size_t out_h() const { return out_h_; }
  std::size_t out_w() const { return out_w_; }
  std::size_t in_h() const { return in_h_; }
  std::size_t in_w() const { return in_w_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }
  /// Owned snapshot of the weights (copies a borrowed view).
  Tensor weight() const { return weight_.tensor(); }
  const WeightBlock& weight_block() const { return weight_; }

 private:
  /// One valid kernel tap of an input spatial position -- the shared
  /// simd::ConvTap shape, so the tap tables feed the conv_taps kernel
  /// without repacking.
  using Tap = simd::ConvTap;

  /// Per-input-position tap tables plus an {ic, k*k, oc} weight copy:
  /// propagate_accum() walks precomputed (offset, weight-index) entries
  /// with zero div/mod and zero bounds branches in the inner loops.
  /// Lazily built (thread-safe), invalidated by weight mutation.
  struct PropagateCache {
    aligned_vector<std::uint32_t> tap_offset;  // in_h*in_w + 1, CSR offsets
    aligned_vector<Tap> taps;                  // <= k*k per spatial position
    aligned_vector<float> weight_acc;  // [(ic*k*k + wofs)*out_ch + oc]
  };
  const PropagateCache& cache() const;
  void invalidate_cache();
  using TapLeaf = void (*)(const simd::ConvTapCtx&);
  /// The conv_taps context of this layer into `u`, with the cache
  /// resolved; the spikes are left to run_taps().
  simd::ConvTapCtx taps_ctx(float* u) const;
  /// One `leaf` call over the bounds-checked spikes of `batch`, in the
  /// canonical order when batch.count >= canonical_threshold() -- the body
  /// of propagate_accum() and of each propagate_train() step.
  void run_taps(simd::ConvTapCtx& ctx, TapLeaf leaf,
                const SpikeSpan& batch) const;

  WeightBlock weight_;
  std::size_t in_ch_, in_h_, in_w_;
  std::size_t out_ch_, out_h_, out_w_;
  std::size_t kernel_, stride_, pad_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_ready_{false};
  mutable PropagateCache cache_;
};

/// Non-overlapping average pooling as fixed uniform synapses (1/k^2 each),
/// optionally pre-scaled (weight scaling applies here too).
class PoolTopology : public SynapseTopology {
 public:
  PoolTopology(std::size_t channels, std::size_t in_h, std::size_t in_w,
               std::size_t kernel);
  /// Variant with an explicit (possibly pre-scaled) pool weight, used when
  /// reconstructing a stage from a serialized artifact.
  PoolTopology(std::size_t channels, std::size_t in_h, std::size_t in_w,
               std::size_t kernel, float pool_weight);

  std::size_t in_size() const override { return channels_ * in_h_ * in_w_; }
  std::size_t out_size() const override { return channels_ * out_h_ * out_w_; }
  void accumulate(std::size_t pre, float m, float* u) const override;
  void propagate_accum(const SpikeSpan& batch, float* u) const override;
  void propagate_train(const EventBuffer& train, const float* mag,
                       float* u) const override;
  void apply_dense(const float* x, float* y) const override;
  void scale_weights(float c) override { weight_ *= c; }
  void map_weights(const std::function<float(float)>& f) override {
    weight_ = f(weight_);
  }
  std::unique_ptr<SynapseTopology> clone() const override;

  float pool_weight() const { return weight_; }
  std::size_t channels() const { return channels_; }
  std::size_t in_h() const { return in_h_; }
  std::size_t in_w() const { return in_w_; }
  std::size_t kernel() const { return kernel_; }

 private:
  /// Lazily built pre -> post index map (geometry never mutates, so no
  /// invalidation; the scalar pool weight is read live).
  const std::uint32_t* post_map() const;

  std::size_t channels_, in_h_, in_w_, kernel_, out_h_, out_w_;
  float weight_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_ready_{false};
  mutable std::vector<std::uint32_t> post_;
};

}  // namespace tsnn::snn
