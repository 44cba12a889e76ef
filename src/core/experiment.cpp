#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "coding/registry.h"
#include "common/error.h"
#include "core/serve.h"
#include "snn/simulator.h"

namespace tsnn::core {

MethodSpec baseline_method(snn::Coding coding, bool ws) {
  MethodSpec spec;
  spec.coding = coding;
  spec.params = coding::default_params(coding);
  spec.weight_scaling = ws;
  spec.label = snn::coding_name(coding);
  if (ws) {
    spec.label += "+WS";
  }
  return spec;
}

MethodSpec ttas_method(std::size_t burst_duration, bool ws) {
  MethodSpec spec;
  spec.coding = snn::Coding::kTtas;
  spec.params = coding::default_params(snn::Coding::kTtas);
  spec.params.burst_duration = burst_duration;
  spec.weight_scaling = ws;
  spec.label = "ttas(" + std::to_string(burst_duration) + ")";
  if (ws) {
    spec.label += "+WS";
  }
  return spec;
}

const snn::SnnModel& ScaledModelCache::get(float factor) {
  if (factor == 1.0f) {
    return *base_;
  }
  for (const auto& [f, model] : clones_) {
    if (f == factor) {
      return *model;
    }
  }
  auto scaled = std::make_unique<snn::SnnModel>(base_->clone());
  scaled->scale_all_weights(factor);
  clones_.emplace_back(factor, std::move(scaled));
  return *clones_.back().second;
}

namespace {

/// (cell, image) requests a worker pops per pull from the admission queue.
/// Pure scheduling: rows are bit-identical at any batch size (test_serve
/// pins the server's replay identity across {1, 4, 16}).
constexpr std::size_t kMicroBatch = 8;

/// Compiles (cell, image i) down to the one self-contained request every
/// execution path runs (snn::ClassifyRequest): image i of a cell is stream
/// i of the cell's seed, so the result is a pure function of the request
/// and the serial walker, the admission-queued parallel path, and the
/// online server cannot drift apart.
snn::ClassifyRequest make_request(const EvalCell& cell, std::size_t i) {
  snn::ClassifyRequest req;
  req.sim.model = cell.model;
  req.sim.scheme = cell.scheme;
  req.sim.noise = cell.noise;
  req.sim.policy = cell.policy;
  req.input_noise = cell.input_noise;
  req.image = &(*cell.images)[i];
  req.seed = cell.seed;
  req.stream = i;
  return req;
}

/// Executes image `i` of `cell` inline into the caller's slots -- the
/// serial walker's body. The workspace is thread_local: warm across cells,
/// grids, and whole benches.
void eval_cell_image(const EvalCell& cell, std::size_t i,
                     std::uint8_t* correct, std::size_t* spikes,
                     std::size_t* decisions) {
  thread_local snn::SimWorkspace ws;
  thread_local snn::SimResult r;
  snn::execute_request(make_request(cell, i), ws, r);
  *correct = r.predicted_class == (*cell.labels)[i] ? 1 : 0;
  *spikes = r.total_spikes;
  *decisions = r.decision_timestep;
}

void check_cells(const std::vector<EvalCell>& cells) {
  for (const EvalCell& cell : cells) {
    TSNN_CHECK_MSG(cell.model != nullptr, "grid cell needs a model");
    TSNN_CHECK_MSG(cell.scheme != nullptr, "grid cell needs a coding scheme");
    TSNN_CHECK_MSG(cell.images != nullptr && cell.labels != nullptr,
                   "grid cell needs images and labels");
    TSNN_CHECK_MSG(cell.images->size() == cell.labels->size(),
                   "grid cell images/labels size mismatch");
  }
}

/// Reduces one completed cell in image-index order (the serial reduction
/// order, so results are bit-identical at any thread count).
EvalCellResult reduce_cell(const std::uint8_t* correct,
                           const std::size_t* spikes,
                           const std::size_t* decisions, std::size_t n) {
  std::size_t num_correct = 0;
  double spike_acc = 0.0;
  double decision_acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num_correct += correct[i];
    spike_acc += static_cast<double>(spikes[i]);
    decision_acc += static_cast<double>(decisions[i]);
  }
  EvalCellResult result;
  if (n > 0) {
    result.accuracy =
        static_cast<double>(num_correct) / static_cast<double>(n);
    result.mean_spikes = spike_acc / static_cast<double>(n);
    result.mean_decision_timesteps = decision_acc / static_cast<double>(n);
  }
  return result;
}

/// Mutable completion state of the parallel grid run. Workers only touch
/// this through complete() (the GridSink body), writing into preallocated
/// task-indexed slots -- completing a request allocates nothing.
struct GridState {
  const std::vector<EvalCell>* cells = nullptr;
  std::vector<std::size_t> offsets;   ///< per-cell prefix sums, cells+1 long
  std::vector<std::uint8_t> correct;  ///< task-indexed (cell-major)
  std::vector<std::size_t> spikes;    ///< task-indexed (cell-major)
  std::vector<std::size_t> decisions; ///< task-indexed (cell-major)
  std::unique_ptr<std::atomic<std::size_t>[]> remaining;  ///< images left per cell
  std::mutex mutex;
  std::condition_variable cell_done;
  std::vector<std::uint8_t> done;  ///< guarded by mutex
  std::exception_ptr error;        ///< guarded by mutex

  /// Flat task index -> owning cell (cells may have different image counts,
  /// so this is an upper_bound over the prefix sums, not a division).
  std::size_t cell_of(std::size_t t) const {
    const auto it = std::upper_bound(offsets.begin(), offsets.end(), t);
    return static_cast<std::size_t>(it - offsets.begin()) - 1;
  }

  /// Completion of task t = (cell c, image i): record the result slots (or
  /// capture the first error) and count the cell down. Runs on the worker
  /// thread that executed the request; never throws, so every completed
  /// cell unblocks the emitter.
  void complete(const InferenceServer::Response& resp) {
    const std::size_t t = static_cast<std::size_t>(resp.id);
    const std::size_t c = cell_of(t);
    if (resp.result != nullptr) {
      const std::size_t i = t - offsets[c];
      const snn::SimResult& r = *resp.result;
      correct[t] =
          r.predicted_class == (*(*cells)[c].labels)[i] ? 1 : 0;
      spikes[t] = r.total_spikes;
      decisions[t] = r.decision_timestep;
    } else if (resp.error) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) {
        error = resp.error;
      }
    }
    // acq_rel: the final decrement observes every worker's slot writes, so
    // the emitter (woken under the mutex) reads a fully written cell.
    if (remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        done[c] = 1;
      }
      cell_done.notify_all();
    }
  }
};

/// The grid's CompletionSink: one stateless trampoline shared by every
/// request of the run.
struct GridSink final : public InferenceServer::CompletionSink {
  GridState* state = nullptr;
  void on_complete(const InferenceServer::Response& resp) override {
    state->complete(resp);
  }
};

void emit_cell(std::vector<EvalCellResult>& results, std::size_t c,
               const EvalCellResult& result, const GridOptions& options) {
  results[c] = result;
  if (options.on_cell) {
    options.on_cell(c, results[c]);
  }
}

}  // namespace

std::vector<EvalCellResult> run_grid(const std::vector<EvalCell>& cells,
                                     const GridOptions& options) {
  check_cells(cells);
  const GridShard& shard = options.shard;
  TSNN_CHECK_MSG(shard.count >= 1 && shard.index < shard.count,
                 "bad grid shard " << shard.index << "/" << shard.count);

  std::vector<EvalCellResult> results(cells.size());
  if (cells.empty()) {
    return results;
  }

  // Resolve shard ownership and the resume skip set up front, in cell
  // order on the calling thread, so the task stream below is a pure
  // function of (cells, shard, completed) -- identical at any thread
  // count. Skipped cells contribute no tasks at all.
  std::vector<std::uint8_t> owned(cells.size(), 0);
  std::vector<std::uint8_t> preset(cells.size(), 0);
  std::size_t total_tasks = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c % shard.count != shard.index) {
      continue;
    }
    owned[c] = 1;
    if (options.completed && options.completed(c, &results[c])) {
      preset[c] = 1;
    } else {
      total_tasks += cells[c].images->size();
    }
  }

  // Parallelism keys on the whole grid, not the per-cell image count: a
  // 60-cell grid of 1-image cells still has 60 independent tasks.
  const bool parallel =
      total_tasks > 1 && resolve_threads(options.num_threads) > 1;

  if (!parallel) {
    // Serial grid walk on the calling thread, cell by cell in index order.
    std::vector<std::uint8_t> correct;
    std::vector<std::size_t> spikes;
    std::vector<std::size_t> decisions;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (!owned[c]) {
        continue;
      }
      if (preset[c]) {
        emit_cell(results, c, results[c], options);
        continue;
      }
      const std::size_t n = cells[c].images->size();
      correct.resize(n);
      spikes.resize(n);
      decisions.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        eval_cell_image(cells[c], i, &correct[i], &spikes[i], &decisions[i]);
      }
      emit_cell(results, c,
                reduce_cell(correct.data(), spikes.data(), decisions.data(), n),
                options);
    }
    return results;
  }

  // Request-level parallel path: compile the grid into one flat request
  // stream (cell-major, so cells finish roughly in emission order; task
  // t = image t - offsets[c] of cell c) and admission-queue it through an
  // InferenceServer with `num_threads` workers. The bounded queue is the
  // backpressure: submit() throttles this thread when the workers fall
  // behind, so a million-task grid never materializes in memory.
  GridState state;
  state.cells = &cells;
  state.offsets.resize(cells.size() + 1);
  state.offsets[0] = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    // Skipped cells (outside the shard or resume-injected) span zero tasks,
    // so cell_of's upper_bound can never map a task to them.
    const std::size_t n =
        owned[c] && !preset[c] ? cells[c].images->size() : 0;
    state.offsets[c + 1] = state.offsets[c] + n;
  }
  state.correct.assign(total_tasks, 0);
  state.spikes.assign(total_tasks, 0);
  state.decisions.assign(total_tasks, 0);
  state.remaining = std::make_unique<std::atomic<std::size_t>[]>(cells.size());
  state.done.assign(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t n = state.offsets[c + 1] - state.offsets[c];
    state.remaining[c].store(n, std::memory_order_relaxed);
    if (n == 0) {
      state.done[c] = 1;  // no task will ever decrement a zero-task cell
    }
  }

  // The server is declared after the state + sink it completes into, so
  // its destructor (a graceful drain) runs first even on an unwind --
  // workers never touch freed frame state.
  GridSink sink;
  sink.state = &state;
  ServeOptions serve;
  serve.num_threads = options.num_threads;
  serve.max_batch = kMicroBatch;
  InferenceServer server(serve);

  std::exception_ptr error;
  auto grab_error = [&] {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!error) {
      error = state.error;
    }
  };
  auto cell_ready = [&](std::size_t c) {
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.done[c] != 0;
  };
  std::size_t next_emit = 0;
  auto emit_next = [&] {
    const std::size_t c = next_emit;
    if (owned[c]) {
      // Resume-injected cells re-emit their stored result; executed cells
      // reduce their task slots. Cells outside the shard just advance.
      emit_cell(results, c,
                preset[c]
                    ? results[c]
                    : reduce_cell(&state.correct[state.offsets[c]],
                                  &state.spikes[state.offsets[c]],
                                  &state.decisions[state.offsets[c]],
                                  state.offsets[c + 1] - state.offsets[c]),
                options);
    }
    ++next_emit;
  };

  // Produce the request stream, emitting completed cells in index order as
  // they finish so rows keep streaming while the tail of the grid is still
  // being admitted. On any error (a simulation failure or a throwing
  // on_cell callback) stop producing/emitting -- the shutdown below drains
  // whatever was admitted before we unwind.
  try {
    for (std::size_t t = 0; t < total_tasks; ++t) {
      const std::size_t c = state.cell_of(t);
      InferenceServer::Request req;
      req.id = t;
      req.work = make_request(cells[c], t - state.offsets[c]);
      req.sink = &sink;
      const bool admitted = server.submit(req);
      TSNN_CHECK_MSG(admitted, "grid server refused admission while open");
      grab_error();
      if (error) {
        break;
      }
      while (next_emit < cells.size() && cell_ready(next_emit)) {
        emit_next();
      }
    }
    // Everything is admitted; emit the remaining cells in index order.
    while (!error && next_emit < cells.size()) {
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.cell_done.wait(lock,
                             [&] { return state.done[next_emit] != 0; });
        if (!error) {
          error = state.error;
        }
      }
      if (error) {
        break;
      }
      emit_next();
    }
  } catch (...) {
    error = std::current_exception();
  }
  server.shutdown();  // graceful drain; every admitted request completes
  grab_error();       // surface errors from requests drained just above
  if (error) {
    std::rethrow_exception(error);
  }
  return results;
}

}  // namespace tsnn::core
