#include "snn/topology.h"

#include <algorithm>

#include "common/aligned.h"
#include "common/error.h"
#include "simd/kernels.h"

namespace tsnn::snn {

namespace {

/// Thread-local gather scratch of ConvTopology's canonical order: per-neuron
/// magnitude sums (zeroed per use) and the ids that carry one. Grow-only,
/// so a warm thread allocates nothing; the zeroing is amortized by the
/// density threshold that gates the canonical order.
struct GatherScratch {
  aligned_vector<float> sum;
  aligned_vector<std::uint32_t> ids;
};

GatherScratch& gather_scratch(std::size_t n) {
  thread_local GatherScratch g;
  g.sum.assign(n, 0.0f);
  g.ids.resize(n);
  return g;
}

/// Largest of ids[0..n) (0 if n == 0): the one reduction a batch's or a
/// train's range check costs.
std::uint32_t max_id(const std::uint32_t* ids, std::size_t n) {
  std::uint32_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, ids[i]);
  }
  return top;
}

/// Throws for the first out-of-range id of ids[0..n) max_id() rejected.
[[gnu::noinline, gnu::cold]] void report_bounds(const std::uint32_t* ids,
                                                std::size_t n,
                                                std::size_t in_size) {
  for (std::size_t i = 0; i < n; ++i) {
    TSNN_CHECK_MSG(ids[i] < in_size,
                   "pre neuron " << ids[i] << " out of range " << in_size);
  }
}

/// PoolTopology's twin of report_bounds(), with its own message.
[[gnu::noinline, gnu::cold]] void report_pool_bounds(const std::uint32_t* ids,
                                                     std::size_t n,
                                                     std::size_t in_size) {
  for (std::size_t i = 0; i < n; ++i) {
    TSNN_CHECK_MSG(ids[i] < in_size, "pre neuron out of range");
  }
}

/// Bounds-validates ids[0..n) once up front, in one reduction, so the
/// kernel leaf functions (simd/kernels.h) run branch-free over trusted
/// indices.
void check_bounds(const std::uint32_t* ids, std::size_t n,
                  std::size_t in_size) {
  if (max_id(ids, n) >= in_size) [[unlikely]] {
    report_bounds(ids, n, in_size);
  }
}

}  // namespace

// ---------------------------------------------------------- WeightBlock ----

WeightBlock WeightBlock::borrow(Shape shape, const float* data,
                                std::shared_ptr<const void> keeper) {
  TSNN_CHECK_MSG(data != nullptr || shape_numel(shape) == 0,
                 "cannot borrow null weight data");
  WeightBlock block;
  block.view_ = data;
  block.view_numel_ = shape_numel(shape);
  block.view_shape_ = std::move(shape);
  block.keeper_ = std::move(keeper);
  return block;
}

std::size_t WeightBlock::dim(std::size_t d) const {
  const Shape& s = shape();
  TSNN_CHECK_MSG(d < s.size(), "weight dim " << d << " out of rank " << s.size());
  return s[d];
}

float* WeightBlock::mutable_data() {
  if (view_ != nullptr) {
    owned_ = tensor();
    view_ = nullptr;
    view_shape_.clear();
    view_numel_ = 0;
    keeper_.reset();
  }
  return owned_.data();
}

Tensor WeightBlock::tensor() const {
  if (view_ == nullptr) {
    return owned_;
  }
  return Tensor{view_shape_, std::vector<float>(view_, view_ + view_numel_)};
}

// ---------------------------------------------------------------- Dense ----

DenseTopology::DenseTopology(WeightBlock weight) : weight_(std::move(weight)) {
  TSNN_CHECK_SHAPE(weight_.rank() == 2, "dense topology weight must be rank 2");
}

void DenseTopology::accumulate(std::size_t pre, float m, float* u) const {
  const std::size_t out = weight_.dim(0);
  const std::size_t in = weight_.dim(1);
  TSNN_CHECK_MSG(pre < in, "pre neuron " << pre << " out of range " << in);
  const float* w = weight_.data() + pre;  // column `pre`, stride `in`
  for (std::size_t j = 0; j < out; ++j) {
    u[j] += m * w[j * in];
  }
}

const float* DenseTopology::transposed() const {
  if (!cache_ready_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!cache_ready_.load(std::memory_order_relaxed)) {
      const std::size_t out = weight_.dim(0);
      const std::size_t in = weight_.dim(1);
      weight_t_.resize(out * in);
      const float* w = weight_.data();
      for (std::size_t j = 0; j < out; ++j) {
        for (std::size_t i = 0; i < in; ++i) {
          weight_t_[i * out + j] = w[j * in + i];
        }
      }
      cache_ready_.store(true, std::memory_order_release);
    }
  }
  return weight_t_.data();
}

void DenseTopology::invalidate_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  weight_t_.clear();
  cache_ready_.store(false, std::memory_order_release);
}

void DenseTopology::propagate_accum(const SpikeSpan& batch, float* u) const {
  if (batch.count == 0) {
    return;
  }
  const std::size_t out = weight_.dim(0);
  const std::size_t in = weight_.dim(1);
  check_bounds(batch.pre, batch.count, in);
  simd::DenseScatterCtx ctx;
  ctx.wt = transposed();
  ctx.pre = batch.pre;
  ctx.mag = batch.mag;
  ctx.mag_stride = batch.mag_stride;
  ctx.count = batch.count;
  ctx.out = out;
  ctx.u = u;
  simd::kernels().dense_scatter(ctx);
}

void DenseTopology::propagate_train(const EventBuffer& train, const float* mag,
                                    float* u) const {
  if (train.empty()) {
    return;
  }
  check_bounds(train.neurons(), train.size(), weight_.dim(1));
  const auto scatter = simd::kernels().dense_scatter;
  simd::DenseScatterCtx ctx;
  ctx.wt = transposed();
  ctx.mag_stride = 0;
  ctx.out = weight_.dim(0);
  ctx.u = u;
  for (std::size_t t = 0; t < train.window(); ++t) {
    const EventBuffer::StepSpan step = train.step(t);
    if (step.count != 0) {
      ctx.pre = step.ids;
      ctx.mag = mag + t;
      ctx.count = step.count;
      scatter(ctx);
    }
  }
}

void DenseTopology::apply_dense(const float* x, float* y) const {
  const std::size_t out = weight_.dim(0);
  const std::size_t in = weight_.dim(1);
  const float* w = weight_.data();
  for (std::size_t j = 0; j < out; ++j) {
    const float* row = w + j * in;
    float acc = 0.0f;
    for (std::size_t i = 0; i < in; ++i) {
      acc += row[i] * x[i];
    }
    y[j] += acc;
  }
}

void DenseTopology::scale_weights(float c) {
  float* w = weight_.mutable_data();
  for (std::size_t i = 0; i < weight_.numel(); ++i) {
    w[i] *= c;
  }
  invalidate_cache();
}

void DenseTopology::map_weights(const std::function<float(float)>& f) {
  float* w = weight_.mutable_data();
  for (std::size_t i = 0; i < weight_.numel(); ++i) {
    w[i] = f(w[i]);
  }
  invalidate_cache();
}

std::unique_ptr<SynapseTopology> DenseTopology::clone() const {
  return std::make_unique<DenseTopology>(weight_);
}

// ----------------------------------------------------------------- Conv ----

ConvTopology::ConvTopology(WeightBlock weight, std::size_t in_h, std::size_t in_w,
                           std::size_t stride, std::size_t pad)
    : weight_(std::move(weight)),
      in_h_(in_h),
      in_w_(in_w),
      stride_(stride),
      pad_(pad) {
  TSNN_CHECK_SHAPE(weight_.rank() == 4 && weight_.dim(2) == weight_.dim(3),
                   "conv topology weight must be {oc,ic,k,k}");
  TSNN_CHECK_MSG(stride_ > 0, "conv stride must be positive");
  out_ch_ = weight_.dim(0);
  in_ch_ = weight_.dim(1);
  kernel_ = weight_.dim(2);
  const std::size_t padded_h = in_h_ + 2 * pad_;
  const std::size_t padded_w = in_w_ + 2 * pad_;
  TSNN_CHECK_SHAPE(padded_h >= kernel_ && padded_w >= kernel_,
                   "conv input smaller than kernel");
  out_h_ = (padded_h - kernel_) / stride_ + 1;
  out_w_ = (padded_w - kernel_) / stride_ + 1;
}

std::size_t ConvTopology::in_size() const { return in_ch_ * in_h_ * in_w_; }

std::size_t ConvTopology::out_size() const { return out_ch_ * out_h_ * out_w_; }

void ConvTopology::accumulate(std::size_t pre, float m, float* u) const {
  TSNN_CHECK_MSG(pre < in_size(), "pre neuron out of range");
  const std::size_t ic = pre / (in_h_ * in_w_);
  const std::size_t rem = pre % (in_h_ * in_w_);
  const std::size_t iy = rem / in_w_;
  const std::size_t ix = rem % in_w_;
  const float* w = weight_.data();
  // Output positions receiving from (iy, ix): oy*stride + ky - pad == iy.
  for (std::size_t ky = 0; ky < kernel_; ++ky) {
    const std::ptrdiff_t num_y =
        static_cast<std::ptrdiff_t>(iy + pad_) - static_cast<std::ptrdiff_t>(ky);
    if (num_y < 0 || num_y % static_cast<std::ptrdiff_t>(stride_) != 0) {
      continue;
    }
    const std::size_t oy = static_cast<std::size_t>(num_y) / stride_;
    if (oy >= out_h_) {
      continue;
    }
    for (std::size_t kx = 0; kx < kernel_; ++kx) {
      const std::ptrdiff_t num_x =
          static_cast<std::ptrdiff_t>(ix + pad_) - static_cast<std::ptrdiff_t>(kx);
      if (num_x < 0 || num_x % static_cast<std::ptrdiff_t>(stride_) != 0) {
        continue;
      }
      const std::size_t ox = static_cast<std::size_t>(num_x) / stride_;
      if (ox >= out_w_) {
        continue;
      }
      const std::size_t spatial = oy * out_w_ + ox;
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        const float wv = w[((oc * in_ch_ + ic) * kernel_ + ky) * kernel_ + kx];
        u[oc * out_h_ * out_w_ + spatial] += m * wv;
      }
    }
  }
}

const ConvTopology::PropagateCache& ConvTopology::cache() const {
  if (!cache_ready_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!cache_ready_.load(std::memory_order_relaxed)) {
      const std::size_t hw = in_h_ * in_w_;
      const std::size_t k2 = kernel_ * kernel_;
      cache_.tap_offset.assign(hw + 1, 0);
      cache_.taps.clear();
      cache_.taps.reserve(hw * k2);
      // Same (ky, kx) walk as accumulate(), with the div/mod validity test
      // resolved once per input position instead of once per spike.
      for (std::size_t iy = 0; iy < in_h_; ++iy) {
        for (std::size_t ix = 0; ix < in_w_; ++ix) {
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t num_y = static_cast<std::ptrdiff_t>(iy + pad_) -
                                         static_cast<std::ptrdiff_t>(ky);
            if (num_y < 0 ||
                num_y % static_cast<std::ptrdiff_t>(stride_) != 0) {
              continue;
            }
            const std::size_t oy = static_cast<std::size_t>(num_y) / stride_;
            if (oy >= out_h_) {
              continue;
            }
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t num_x =
                  static_cast<std::ptrdiff_t>(ix + pad_) -
                  static_cast<std::ptrdiff_t>(kx);
              if (num_x < 0 ||
                  num_x % static_cast<std::ptrdiff_t>(stride_) != 0) {
                continue;
              }
              const std::size_t ox = static_cast<std::size_t>(num_x) / stride_;
              if (ox >= out_w_) {
                continue;
              }
              cache_.taps.push_back(
                  Tap{static_cast<std::uint32_t>(oy * out_w_ + ox),
                      static_cast<std::uint32_t>(ky * kernel_ + kx)});
            }
          }
          cache_.tap_offset[iy * in_w_ + ix + 1] =
              static_cast<std::uint32_t>(cache_.taps.size());
        }
      }
      // {ic, k*k, oc} layout: with the transposed {spatial, channel}
      // accumulator, one tap's fan-out is a unit-stride multiply-add over
      // out_ch in both the weight and the accumulator.
      cache_.weight_acc.resize(weight_.numel());
      const float* w = weight_.data();
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t t = 0; t < k2; ++t) {
            cache_.weight_acc[(ic * k2 + t) * out_ch_ + oc] =
                w[(oc * in_ch_ + ic) * k2 + t];
          }
        }
      }
      cache_ready_.store(true, std::memory_order_release);
    }
  }
  return cache_;
}

void ConvTopology::invalidate_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_ = PropagateCache{};
  cache_ready_.store(false, std::memory_order_release);
}

void ConvTopology::run_taps(simd::ConvTapCtx& ctx, TapLeaf leaf,
                            const SpikeSpan& batch) const {
  ctx.pre = batch.pre;
  ctx.mag = batch.mag;
  ctx.mag_stride = batch.mag_stride;
  ctx.count = batch.count;
  if (batch.count >= canonical_threshold()) {
    // Canonical order: sum each neuron's magnitudes in batch order, then
    // emit the neurons ascending, so each slot adds its products in
    // (ic, ky, kx) order. A zero sum is skipped: it would add only a
    // signed zero.
    const std::size_t in = in_size();
    GatherScratch& g = gather_scratch(in);
    for (std::size_t i = 0; i < batch.count; ++i) {
      g.sum[batch.pre[i]] += batch.mag[i * batch.mag_stride];
    }
    std::size_t count = 0;
    for (std::size_t j = 0; j < in; ++j) {
      if (g.sum[j] != 0.0f) {
        g.ids[count] = static_cast<std::uint32_t>(j);
        g.sum[count++] = g.sum[j];  // in place: count <= j
      }
    }
    ctx.pre = g.ids.data();
    ctx.mag = g.sum.data();
    ctx.mag_stride = 1;
    ctx.count = count;
  }
  // Each accumulator slot is touched at most once per spike, and spikes
  // run in order, so per-slot addition order is spike order on every
  // table -- the conv_taps kernel contract in simd/kernels.h.
  leaf(ctx);
}

simd::ConvTapCtx ConvTopology::taps_ctx(float* u) const {
  const PropagateCache& c = cache();
  simd::ConvTapCtx ctx;
  ctx.wt = c.weight_acc.data();
  ctx.tap_offset = c.tap_offset.data();
  ctx.taps = c.taps.data();
  ctx.in_hw = in_h_ * in_w_;
  ctx.k2 = kernel_ * kernel_;
  ctx.oc = out_ch_;
  if (kernel_ == 3 && stride_ == 1 && pad_ == 1) {
    ctx.in_w = in_w_;  // the geometry a fixed-offset leaf may specialize
    ctx.in_h = in_h_;
  }
  ctx.u = u;
  return ctx;
}

void ConvTopology::propagate_accum(const SpikeSpan& batch, float* u) const {
  if (batch.count == 0) {
    return;
  }
  check_bounds(batch.pre, batch.count, in_size());
  simd::ConvTapCtx ctx = taps_ctx(u);
  run_taps(ctx, simd::kernels().conv_taps, batch);
}

void ConvTopology::propagate_train(const EventBuffer& train, const float* mag,
                                   float* u) const {
  if (train.empty()) {
    return;
  }
  check_bounds(train.neurons(), train.size(), in_size());
  simd::ConvTapCtx ctx = taps_ctx(u);
  const TapLeaf leaf = simd::kernels().conv_taps;
  for (std::size_t t = 0; t < train.window(); ++t) {
    const EventBuffer::StepSpan step = train.step(t);
    if (step.count != 0) {
      run_taps(ctx, leaf, SpikeSpan::uniform(step, mag + t));
    }
  }
}

void ConvTopology::apply_dense(const float* x, float* y) const {
  const float* w = weight_.data();
  const auto axpy = simd::kernels().axpy;
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    float* ymap = y + oc * out_h_ * out_w_;
    for (std::size_t ic = 0; ic < in_ch_; ++ic) {
      const float* xmap = x + ic * in_h_ * in_w_;
      const float* wk = w + (oc * in_ch_ + ic) * kernel_ * kernel_;
      for (std::size_t ky = 0; ky < kernel_; ++ky) {
        for (std::size_t kx = 0; kx < kernel_; ++kx) {
          const float wv = wk[ky * kernel_ + kx];
          if (wv == 0.0f) {
            continue;
          }
          for (std::size_t oy = 0; oy < out_h_; ++oy) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h_)) {
              continue;
            }
            const float* xrow = xmap + static_cast<std::size_t>(iy) * in_w_;
            float* yrow = ymap + oy * out_w_;
            if (stride_ == 1) {
              // Unit stride: the valid ox range is one contiguous span, an
              // axpy (elementwise mul+add -- bit-exact vs the scalar loop).
              const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                           static_cast<std::ptrdiff_t>(pad_);
              const std::size_t ox_lo =
                  shift < 0 ? static_cast<std::size_t>(-shift) : 0;
              const std::ptrdiff_t hi =
                  static_cast<std::ptrdiff_t>(in_w_) - shift;
              const std::size_t ox_hi =
                  hi < 0 ? 0
                         : (static_cast<std::size_t>(hi) < out_w_
                                ? static_cast<std::size_t>(hi)
                                : out_w_);
              if (ox_hi > ox_lo) {
                axpy(yrow + ox_lo,
                     xrow + static_cast<std::size_t>(
                                static_cast<std::ptrdiff_t>(ox_lo) + shift),
                     wv, ox_hi - ox_lo);
              }
              continue;
            }
            for (std::size_t ox = 0; ox < out_w_; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w_)) {
                continue;
              }
              yrow[ox] += wv * xrow[static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
}

void ConvTopology::scale_weights(float c) {
  float* w = weight_.mutable_data();
  for (std::size_t i = 0; i < weight_.numel(); ++i) {
    w[i] *= c;
  }
  invalidate_cache();
}

void ConvTopology::map_weights(const std::function<float(float)>& f) {
  float* w = weight_.mutable_data();
  for (std::size_t i = 0; i < weight_.numel(); ++i) {
    w[i] = f(w[i]);
  }
  invalidate_cache();
}

std::unique_ptr<SynapseTopology> ConvTopology::clone() const {
  return std::make_unique<ConvTopology>(weight_, in_h_, in_w_, stride_, pad_);
}

// ----------------------------------------------------------------- Pool ----

PoolTopology::PoolTopology(std::size_t channels, std::size_t in_h,
                           std::size_t in_w, std::size_t kernel)
    : PoolTopology(channels, in_h, in_w, kernel,
                   1.0f / static_cast<float>(kernel * kernel)) {}

PoolTopology::PoolTopology(std::size_t channels, std::size_t in_h,
                           std::size_t in_w, std::size_t kernel,
                           float pool_weight)
    : channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      out_h_(in_h / kernel),
      out_w_(in_w / kernel),
      weight_(pool_weight) {
  TSNN_CHECK_MSG(kernel_ > 0, "pool kernel must be positive");
  TSNN_CHECK_SHAPE(in_h_ % kernel_ == 0 && in_w_ % kernel_ == 0,
                   "pool extent not divisible by kernel");
}

void PoolTopology::accumulate(std::size_t pre, float m, float* u) const {
  TSNN_CHECK_MSG(pre < in_size(), "pre neuron out of range");
  const std::size_t c = pre / (in_h_ * in_w_);
  const std::size_t rem = pre % (in_h_ * in_w_);
  const std::size_t iy = rem / in_w_;
  const std::size_t ix = rem % in_w_;
  const std::size_t oy = iy / kernel_;
  const std::size_t ox = ix / kernel_;
  u[(c * out_h_ + oy) * out_w_ + ox] += m * weight_;
}

const std::uint32_t* PoolTopology::post_map() const {
  if (!cache_ready_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (!cache_ready_.load(std::memory_order_relaxed)) {
      post_.resize(in_size());
      std::size_t pre = 0;
      for (std::size_t c = 0; c < channels_; ++c) {
        for (std::size_t iy = 0; iy < in_h_; ++iy) {
          for (std::size_t ix = 0; ix < in_w_; ++ix, ++pre) {
            post_[pre] = static_cast<std::uint32_t>(
                (c * out_h_ + iy / kernel_) * out_w_ + ix / kernel_);
          }
        }
      }
      cache_ready_.store(true, std::memory_order_release);
    }
  }
  return post_.data();
}

void PoolTopology::propagate_accum(const SpikeSpan& batch, float* u) const {
  // Pool fan-out is O(1) per spike; batching removes the virtual dispatch
  // and div/mod, and the range check is one reduction per batch.
  if (max_id(batch.pre, batch.count) >= in_size()) [[unlikely]] {
    report_pool_bounds(batch.pre, batch.count, in_size());
  }
  const std::uint32_t* pre = batch.pre;
  const std::uint32_t* post = post_map();
  const float w = weight_;
  for (std::size_t i = 0; i < batch.count; ++i) {
    u[post[pre[i]]] += batch.mag[i * batch.mag_stride] * w;
  }
}

void PoolTopology::propagate_train(const EventBuffer& train, const float* mag,
                                   float* u) const {
  if (max_id(train.neurons(), train.size()) >= in_size()) [[unlikely]] {
    report_pool_bounds(train.neurons(), train.size(), in_size());
  }
  const std::uint32_t* post = post_map();
  const float w = weight_;
  for (std::size_t t = 0; t < train.window(); ++t) {
    const EventBuffer::StepSpan step = train.step(t);
    const float m = mag[t];
    for (std::size_t i = 0; i < step.count; ++i) {
      u[post[step.ids[i]]] += m * w;
    }
  }
}

void PoolTopology::apply_dense(const float* x, float* y) const {
  for (std::size_t c = 0; c < channels_; ++c) {
    const float* xmap = x + c * in_h_ * in_w_;
    float* ymap = y + c * out_h_ * out_w_;
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      for (std::size_t ox = 0; ox < out_w_; ++ox) {
        float acc = 0.0f;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const float* xrow = xmap + (oy * kernel_ + ky) * in_w_ + ox * kernel_;
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            acc += xrow[kx];
          }
        }
        ymap[oy * out_w_ + ox] += acc * weight_;
      }
    }
  }
}

std::unique_ptr<SynapseTopology> PoolTopology::clone() const {
  auto copy = std::make_unique<PoolTopology>(channels_, in_h_, in_w_, kernel_);
  copy->weight_ = weight_;
  return copy;
}

}  // namespace tsnn::snn
