// Google-benchmark micro-kernels for TSNN's hot paths: conv/dense forward,
// event-driven synapse accumulation, batched spike propagation (the
// *SpikeAccumulate vs *SpikePropagate pairs time the per-spike reference
// against the cache-resident batched engine on identical batches), spike
// encoding, and noise injection. These quantify the cost model behind the
// figure benches (event-driven cost ~ spikes x fanout, which is why TTFS
// simulations are ~10x cheaper than rate simulations).
//
// The spike-propagation, fire-scan and noise benches also register one
// variant per runnable SIMD dispatch table (e.g.
// BM_DenseSpikePropagate<scalar> next to BM_DenseSpikePropagate<avx2>), so
// one run measures the vector speedup against the forced-scalar reference
// on identical inputs. The noise benches time apply_inplace, the path the
// simulator runs, on prepared TTAS(5) trains. The dense and
// conv propagate benches each time one full-density step (conv's takes its
// canonical order). The active ISA is stamped into the benchmark JSON
// context ("isa").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "coding/registry.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "core/ttas.h"
#include "dnn/conv2d.h"
#include "noise/deletion.h"
#include "noise/jitter.h"
#include "simd/kernels.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "snn/workspace.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace tsnn;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

Tensor random_activations(std::size_t n, std::uint64_t seed) {
  Tensor t{Shape{n}};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return t;
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  dnn::Conv2dSpec spec{.in_channels = channels, .out_channels = channels,
                       .kernel = 3, .stride = 1, .pad = 1, .use_bias = false};
  dnn::Conv2d conv("c", spec);
  conv.weight().value = random_tensor(conv.weight().value.shape(), 1);
  const Tensor x = random_tensor(Shape{channels, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(channels * channels * 9 * 256));
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_DenseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor w = random_tensor(Shape{n, n}, 3);
  const Tensor x = random_tensor(Shape{n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matvec(w, x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DenseMatvec)->Arg(128)->Arg(512);

/// One timestep's batch: `count` distinct presynaptic neurons at uniform
/// magnitude (the rate/phase/TTFS shape).
snn::SpikeBatch make_batch(std::size_t in_size, std::size_t count,
                           std::uint64_t seed) {
  snn::SpikeBatch batch;
  Rng rng(seed);
  std::vector<bool> used(in_size, false);
  for (std::size_t i = 0; i < count; ++i) {
    auto pre = static_cast<std::uint32_t>(rng.uniform_index(in_size));
    while (used[pre]) {
      pre = (pre + 1) % static_cast<std::uint32_t>(in_size);
    }
    used[pre] = true;
    batch.add(pre, 0.4f);
  }
  return batch;
}

// ---- Spike propagation: per-spike accumulate() baseline vs. the batched
// ---- engine. Same spikes, same synapse; args are {layer size, spikes/step}.

void BM_DenseSpikeAccumulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto spikes = static_cast<std::size_t>(state.range(1));
  snn::DenseTopology syn(random_tensor(Shape{n, n}, 11));
  const snn::SpikeBatch batch = make_batch(n, spikes, 12);
  std::vector<float> u(syn.out_size(), 0.0f);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      syn.accumulate(batch.pre()[i], batch.magnitude()[i], u.data());
    }
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spikes * n));
}
BENCHMARK(BM_DenseSpikeAccumulate)->Args({512, 64})->Args({512, 350});

void BM_DenseSpikePropagate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto spikes = static_cast<std::size_t>(state.range(1));
  snn::DenseTopology syn(random_tensor(Shape{n, n}, 11));
  const snn::SpikeBatch batch = make_batch(n, spikes, 12);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate_accum(batch, u.data());  // build the transposed cache
  for (auto _ : state) {
    syn.propagate_accum(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spikes * n));
}
/// {layer size, spikes/step}: sparse, mid-density and full density.
void dense_propagate_args(benchmark::internal::Benchmark* b) {
  b->Args({512, 64})->Args({512, 350})->Args({512, 512});
}
BENCHMARK(BM_DenseSpikePropagate)->Apply(dense_propagate_args);

void BM_ConvSpikeAccumulate(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  const auto spikes = static_cast<std::size_t>(state.range(2));
  snn::ConvTopology syn(random_tensor(Shape{channels, channels, 3, 3}, 13), hw,
                        hw, 1, 1);
  const snn::SpikeBatch batch = make_batch(syn.in_size(), spikes, 14);
  std::vector<float> u(syn.out_size(), 0.0f);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      syn.accumulate(batch.pre()[i], batch.magnitude()[i], u.data());
    }
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spikes * 9 * channels));
}
// Configurations target the regime the batched engine exists for: conv
// layers whose weights outgrow L1 (64ch: 147 KB, 128ch: 590 KB), where the
// reference's oc-strided weight reads miss on every access. Tiny
// L1-resident layers run at parity either way (both are scalar-scatter
// bound) and are not the scaling bottleneck.
BENCHMARK(BM_ConvSpikeAccumulate)
    ->Args({64, 16, 1024})
    ->Args({128, 16, 2048});

/// The simulator's conv kernel: propagate_accum into the transposed
/// {spatial, channel} accumulator through the dispatch table's conv_taps,
/// on the zoo's 3x3 / stride-1 / pad-1 shapes ({channels, side, spikes}:
/// conv1b-like layers with as many input as output channels, about 8% of
/// the input spiking, plus one at full density, which takes the canonical
/// order's gather).
void BM_ConvSpikePropagate(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  const auto spikes = static_cast<std::size_t>(state.range(2));
  snn::ConvTopology syn(random_tensor(Shape{channels, channels, 3, 3}, 13), hw,
                        hw, 1, 1);
  const snn::SpikeBatch batch = make_batch(syn.in_size(), spikes, 14);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate_accum(batch, u.data());  // build the tap tables up front
  for (auto _ : state) {
    syn.propagate_accum(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spikes * 9 * channels));
}
void conv_propagate_args(benchmark::internal::Benchmark* b) {
  b->Args({12, 16, 256})
      ->Args({16, 16, 320})
      ->Args({16, 16, 4096})
      ->Args({24, 8, 128})
      ->Args({32, 8, 160})
      ->Args({64, 4, 80});
}
BENCHMARK(BM_ConvSpikePropagate)->Apply(conv_propagate_args);

void BM_PoolSpikePropagate(benchmark::State& state) {
  snn::PoolTopology syn(16, 16, 16, 2);
  const snn::SpikeBatch batch = make_batch(syn.in_size(), 512, 15);
  std::vector<float> u(syn.out_size(), 0.0f);
  for (auto _ : state) {
    syn.propagate_accum(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PoolSpikePropagate);

void BM_ConvTopologyAccumulate(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  snn::ConvTopology syn(random_tensor(Shape{channels, channels, 3, 3}, 5), 16, 16,
                        1, 1);
  std::vector<float> u(syn.out_size(), 0.0f);
  std::size_t pre = 0;
  for (auto _ : state) {
    syn.accumulate(pre, 0.4f, u.data());
    pre = (pre + 97) % syn.in_size();
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(9 * channels));
}
BENCHMARK(BM_ConvTopologyAccumulate)->Arg(16)->Arg(64);

/// The simulator's encoder call: encode_into on a warm workspace, so the
/// loop times encoding alone (the raster adapter encode() would add a fresh
/// workspace and a raster conversion to every call).
void BM_Encode(benchmark::State& state) {
  const auto coding = static_cast<snn::Coding>(state.range(0));
  const auto scheme = coding::make_scheme(coding);
  const Tensor a = random_activations(768, 6);
  snn::SimWorkspace ws;
  snn::EventBuffer out;
  scheme->encode_into(a, ws, out);  // warm the workspace and the buffer
  for (auto _ : state) {
    scheme->encode_into(a, ws, out);
    benchmark::DoNotOptimize(out.size());
    benchmark::ClobberMemory();
  }
  state.SetLabel(snn::coding_name(coding));
}
BENCHMARK(BM_Encode)
    ->Arg(static_cast<int>(snn::Coding::kRate))
    ->Arg(static_cast<int>(snn::Coding::kPhase))
    ->Arg(static_cast<int>(snn::Coding::kBurst))
    ->Arg(static_cast<int>(snn::Coding::kTtfs))
    ->Arg(static_cast<int>(snn::Coding::kTtas));

/// A zoo stage's accumulator layout, rows channels x cols positions (the
/// {spatial, channel} conv layout; rows 1 is the identity).
struct FireScanLayout {
  const char* stage;
  std::size_t rows;
  std::size_t cols;
};

/// Every layout shape the zoo's fire scans see: S-CIFAR10's conv1a, pool1
/// (identity), conv2 and conv3 stages and S-MNIST's conv1 and conv2 stages.
constexpr FireScanLayout kFireScanLayouts[] = {
    {"conv1a", 16, 256}, {"pool1", 1, 1024},  {"mnist-conv1", 12, 256},
    {"mnist-conv2", 24, 64}, {"conv2a", 32, 64}, {"conv3a", 64, 16}};

/// Prepared fire-scan inputs on the accumulator layout kFireScanLayouts[arg
/// 0]; arg 1 is the share of neurons that fire, in percent. Eight states
/// per config, because one replayed state lets the branch predictor learn
/// its fire pattern.
struct FireScanStates {
  static constexpr std::size_t kStates = 8;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<aligned_vector<float>> u;
  std::vector<aligned_vector<std::uint32_t>> k;

  /// `quantum(k)` is the level a neuron with counter k fires at.
  template <typename Quantum>
  FireScanStates(const benchmark::State& state, std::uint32_t max_k,
                 Quantum&& quantum) {
    const FireScanLayout& layout =
        kFireScanLayouts[static_cast<std::size_t>(state.range(0))];
    rows = layout.rows;
    cols = layout.cols;
    const double density = static_cast<double>(state.range(1)) / 100.0;
    Rng rng(17);
    for (std::size_t s = 0; s < kStates; ++s) {
      aligned_vector<float> us(rows * cols);
      aligned_vector<std::uint32_t> ks(rows * cols);
      for (std::size_t j = 0; j < us.size(); ++j) {
        ks[j] = static_cast<std::uint32_t>(rng.uniform_index(max_k + 1));
        const double level = rng.bernoulli(density) ? rng.uniform(1.0, 1.5)
                                                    : rng.uniform(-0.5, 1.0);
        us[j] = quantum(ks[j]) * static_cast<float>(level);
      }
      u.push_back(std::move(us));
      k.push_back(std::move(ks));
    }
  }
};

void label_fire_scan(benchmark::State& state, std::size_t fired,
                     std::size_t n) {
  const FireScanLayout& layout =
      kFireScanLayouts[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(std::string(layout.stage) + " " + std::to_string(layout.rows) +
                 "x" + std::to_string(layout.cols));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["fired"] = static_cast<double>(fired);
}

/// One rate/phase step's subtract-mode threshold scan through the dispatch
/// table's threshold_fire at theta 0.4. Each iteration restores the next of
/// the prepared states (the copy is part of the time) and scans it.
void BM_ThresholdFire(benchmark::State& state) {
  const float theta = 0.4f;
  const FireScanStates states(state, 0,
                              [theta](std::uint32_t) { return theta; });
  const std::size_t n = states.rows * states.cols;
  aligned_vector<float> u(n);
  aligned_vector<std::uint32_t> fired(n);
  simd::ThresholdCtx ctx;
  ctx.u = u.data();
  ctx.rows = states.rows;
  ctx.cols = states.cols;
  ctx.threshold = theta;
  ctx.subtract = true;
  ctx.fired = fired.data();
  std::size_t nf = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& u0 = states.u[next];
    std::copy(u0.begin(), u0.end(), u.begin());
    next = (next + 1) % FireScanStates::kStates;
    nf = simd::kernels().threshold_fire(ctx);
    benchmark::DoNotOptimize(nf);
    benchmark::ClobberMemory();
  }
  label_fire_scan(state, nf, n);
}

/// One step of burst coding's escalating fire scan through the dispatch
/// table's burst_fire, at the default ladder (theta 0.4, g 2, cap 4), on
/// the same prepared states (potentials and counters restored per
/// iteration).
void BM_BurstFire(benchmark::State& state) {
  const std::vector<float> quanta = {0.4f, 0.8f, 1.6f, 3.2f, 6.4f};
  const auto cap = static_cast<std::uint32_t>(quanta.size() - 1);
  const FireScanStates states(state, cap + 1, [&](std::uint32_t k) {
    return quanta[std::min(k, cap)];
  });
  const std::size_t n = states.rows * states.cols;
  aligned_vector<float> u(n);
  aligned_vector<std::uint32_t> k(n);
  aligned_vector<std::uint32_t> fired(n);
  simd::BurstFireCtx ctx;
  ctx.u = u.data();
  ctx.k = k.data();
  ctx.rows = states.rows;
  ctx.cols = states.cols;
  ctx.quanta = quanta.data();
  ctx.cap = cap;
  ctx.fired = fired.data();
  std::size_t nf = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& u0 = states.u[next];
    const auto& k0 = states.k[next];
    std::copy(u0.begin(), u0.end(), u.begin());
    std::copy(k0.begin(), k0.end(), k.begin());
    next = (next + 1) % FireScanStates::kStates;
    nf = simd::kernels().burst_fire(ctx);
    benchmark::DoNotOptimize(nf);
    benchmark::ClobberMemory();
  }
  label_fire_scan(state, nf, n);
}

/// {layout, firing percent} configs of the fire-scan benches.
void fire_scan_args(benchmark::internal::Benchmark* b) {
  for (int layout = 0; layout < static_cast<int>(std::size(kFireScanLayouts));
       ++layout) {
    for (const int percent : {2, 8, 15}) {
      b->Args({layout, percent});
    }
  }
}
BENCHMARK(BM_ThresholdFire)->Apply(fire_scan_args);
BENCHMARK(BM_BurstFire)->Apply(fire_scan_args);


/// Whole-image simulation with the policy off (arg 0, stage by stage) vs a
/// never-firing margin policy (arg 1, the lockstep wavefront) on a small
/// conv/pool/dense model -- measures the wavefront's per-step dispatch
/// overhead (extra virtual hooks, wavefront bookkeeping, per-step readout
/// margin peeks), the cost simulate_into avoids by running stage by stage
/// whenever no policy can exit early.
void BM_SteppedOverhead(benchmark::State& state) {
  const bool wavefront = state.range(0) != 0;
  snn::SnnModel model(Shape{1, 8, 8});
  Tensor conv_w{Shape{4, 1, 3, 3}};
  for (std::size_t i = 0; i < conv_w.numel(); ++i) {
    conv_w[i] = 0.05f * static_cast<float>((i * 17) % 13) - 0.25f;
  }
  model.add_stage("conv", std::make_unique<snn::ConvTopology>(conv_w, 8, 8,
                                                              /*stride=*/1,
                                                              /*pad=*/1));
  model.add_stage("pool", std::make_unique<snn::PoolTopology>(4, 8, 8, 2));
  Tensor dense_w{Shape{5, 64}};
  for (std::size_t i = 0; i < dense_w.numel(); ++i) {
    dense_w[i] = 0.03f * static_cast<float>((i * 7) % 17) - 0.2f;
  }
  model.add_stage("readout", std::make_unique<snn::DenseTopology>(dense_w));

  const auto scheme = coding::make_scheme(snn::Coding::kRate);
  Tensor img{Shape{1, 8, 8}};
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>((i * 31) % 64) / 64.0f;
  }
  snn::SimWorkspace ws;
  snn::SimResult result;
  snn::SimRequest req{&model, scheme.get(), nullptr, nullptr, &ws};
  if (wavefront) {
    req.policy.mode = snn::DecisionPolicy::Mode::kMargin;
    req.policy.margin = 1e9f;
  }
  // Warm the workspace (and topology caches) so the loop times pure
  // simulation, not first-touch growth.
  snn::simulate_into(req, img, result);
  for (auto _ : state) {
    snn::simulate_into(req, img, result);
    benchmark::DoNotOptimize(result.logits.data());
  }
  state.SetLabel(wavefront ? "wavefront" : "stage-by-stage");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SteppedOverhead)->Arg(0)->Arg(1);

/// Prepared input trains for the noise benches: TTAS(5) encodings of
/// random activations shaped like an s-cifar10 image (3x16x16), each
/// finalized in its own EventBuffer.
struct NoiseTrains {
  static constexpr std::size_t kTrains = 8;
  std::vector<snn::EventBuffer> trains;

  NoiseTrains() {
    const auto scheme = core::make_ttas(5);
    snn::SimWorkspace ws;
    for (std::size_t i = 0; i < kTrains; ++i) {
      snn::EventBuffer buf;
      scheme->encode_into(random_activations(3 * 16 * 16, 40 + i), ws, buf);
      trains.push_back(std::move(buf));
    }
  }
};

/// The simulator's noise hot path: apply_inplace on a warm EventBuffer and
/// scratch. Each iteration restores the next prepared train (the copy is
/// part of the time) and corrupts it in place.
void run_noise_inplace(benchmark::State& state, const snn::NoiseModel& noise) {
  static const NoiseTrains prepared;
  snn::EventBuffer buf = prepared.trains[0];
  snn::EventSortScratch scratch;
  Rng rng(8);
  noise.apply_inplace(buf, scratch, rng);
  std::int64_t events = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    buf = prepared.trains[next];
    events += static_cast<std::int64_t>(buf.size());
    next = (next + 1) % NoiseTrains::kTrains;
    noise.apply_inplace(buf, scratch, rng);
    benchmark::DoNotOptimize(buf.neurons());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(events);
}

void BM_DeletionNoise(benchmark::State& state) {
  run_noise_inplace(state, noise::DeletionNoise(0.5));
}
BENCHMARK(BM_DeletionNoise);

/// Jitter at sigma 2, the middle of the temporal grid's levels: the
/// batched Gaussian shift draw (gauss_shifts) plus the re-bucket.
void BM_JitterNoise(benchmark::State& state) {
  run_noise_inplace(state, noise::JitterNoise(2.0));
}
BENCHMARK(BM_JitterNoise);

/// The gauss_shifts leaf alone: 4096 Box-Muller pairs at sigma 2 and limit
/// 63 (a 64-step window), turned into shifts by the active table. Items
/// are pairs.
void BM_GaussShifts(benchmark::State& state) {
  constexpr std::size_t kPairs = 4096;
  static const std::vector<double> uniforms = [] {
    std::vector<double> u(2 * kPairs);
    Rng rng(11);
    rng.uniform_pairs(kPairs, u.data());
    return u;
  }();
  std::vector<std::int32_t> out(2 * kPairs);
  simd::GaussShiftCtx ctx;
  ctx.u = uniforms.data();
  ctx.pairs = kPairs;
  ctx.sigma = 2.0;
  ctx.limit = 63;
  ctx.out = out.data();
  const auto leaf = simd::kernels().gauss_shifts;
  for (auto _ : state) {
    leaf(ctx);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}
BENCHMARK(BM_GaussShifts);

/// Registers one copy of the spike-propagation, fire-scan and noise benches
/// per runnable dispatch table, each pinned via ScopedKernelOverride for the
/// duration of its run -- BM_DenseSpikePropagate<scalar>/512/350 next to
/// BM_DenseSpikePropagate<avx2>/512/350 is the vector-vs-reference
/// speedup on identical work. Only registered when more than one table is
/// runnable (a TSNN_CPUFLAGS=scalar run has nothing to compare).
void register_isa_variants() {
  const std::vector<const tsnn::simd::KernelDispatch*> tables =
      tsnn::simd::runnable_tables();
  if (tables.size() < 2) {
    return;
  }
  for (const tsnn::simd::KernelDispatch* table : tables) {
    // Appended piece by piece: GCC 12 misreads `"<" + std::string(...)` as
    // an overlapping copy (-Wrestrict).
    std::string suffix = "<";
    suffix += table->isa;
    suffix += '>';
    const auto pinned = [table](void (*bench)(benchmark::State&)) {
      return [table, bench](benchmark::State& state) {
        tsnn::simd::ScopedKernelOverride override_table(*table);
        bench(state);
      };
    };
    benchmark::RegisterBenchmark(("BM_DenseSpikePropagate" + suffix).c_str(),
                                 pinned(BM_DenseSpikePropagate))
        ->Apply(dense_propagate_args);
    benchmark::RegisterBenchmark(("BM_ConvSpikePropagate" + suffix).c_str(),
                                 pinned(BM_ConvSpikePropagate))
        ->Apply(conv_propagate_args);
    benchmark::RegisterBenchmark(("BM_ThresholdFire" + suffix).c_str(),
                                 pinned(BM_ThresholdFire))
        ->Apply(fire_scan_args);
    benchmark::RegisterBenchmark(("BM_BurstFire" + suffix).c_str(),
                                 pinned(BM_BurstFire))
        ->Apply(fire_scan_args);
    benchmark::RegisterBenchmark(("BM_DeletionNoise" + suffix).c_str(),
                                 pinned(BM_DeletionNoise));
    benchmark::RegisterBenchmark(("BM_JitterNoise" + suffix).c_str(),
                                 pinned(BM_JitterNoise));
    benchmark::RegisterBenchmark(("BM_GaussShifts" + suffix).c_str(),
                                 pinned(BM_GaussShifts));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("isa", tsnn::simd::active_isa());
  register_isa_variants();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
