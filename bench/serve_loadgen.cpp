// serve_loadgen: tail-latency load generator for bench/tsnn_serve.
//
// Forks the server as a child process (POSIX pipes are the transport --
// zero new dependencies), drives it with a deterministic, precomputed
// request schedule, and reports p50/p95/p99/max latency plus sustained
// throughput into BENCH_serve.json (the CI serve-smoke artifact).
//
// Arrival processes (--mode):
//   open    Poisson arrivals at --rate req/s. Latency is measured from the
//           *scheduled* arrival time, not the actual send, so sender-side
//           queueing is charged to the server (no coordinated omission).
//   burst   on/off arrivals: 100 ms bursts at 5x --rate, 400 ms silence
//           (same mean rate) -- the tail-latency stress shape.
//   closed  --concurrency outstanding requests; a completion immediately
//           triggers the next send. Measures capacity, not tail behavior.
//
// The schedule (arrival times, model/coding mix, image indices, request
// seeds) is a pure function of --seed, and every request carries its own
// seed, so --verify can replay the identical trace against a second server
// running with threads=1, max-batch=1, deadline=0 and demand bit-identical
// per-request results (predicted class, decision timestep, spike count) --
// the end-to-end pin that batching, thread count, and arrival jitter never
// leak into results.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string server;  ///< path to the tsnn_serve binary (required)
  std::string mode = "open";
  double rate = 100.0;           ///< mean req/s (open, burst)
  std::size_t requests = 500;    ///< post-warmup measured requests
  std::size_t warmup = 32;       ///< unmeasured leading requests
  std::size_t concurrency = 16;  ///< outstanding requests (closed)
  std::string models = "s-mnist";
  std::string codings = "rate,burst";
  std::uint64_t seed = 0xC0FFEE;
  std::string json = "BENCH_serve.json";
  bool verify = false;
  // Forwarded to the server:
  std::size_t threads = 1;
  std::size_t max_batch = 8;
  long long deadline_us = 0;
  std::size_t queue = 0;
  std::size_t images = 64;
};

/// Usage goes to stdout only for --help; on an error it goes to stderr.
[[noreturn]] void usage(const char* prog, int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: %s --server PATH [options]\n"
      "  --mode open|burst|closed   arrival process (default open)\n"
      "  --rate R                   mean req/s, open/burst (default 100)\n"
      "  --requests N               measured requests (default 500)\n"
      "  --warmup N                 unmeasured leading requests (default 32)\n"
      "  --concurrency N            outstanding requests, closed (default "
      "16)\n"
      "  --models a,b,...           zoo datasets to mix (default s-mnist)\n"
      "  --codings a,b,...          coding labels to mix (default "
      "rate,burst)\n"
      "  --seed S                   schedule + request seed (default "
      "0xC0FFEE)\n"
      "  --json PATH                output document (default "
      "BENCH_serve.json)\n"
      "  --verify                   replay the trace unbatched/unthreaded "
      "and\n"
      "                             demand bit-identical per-request "
      "results\n"
      "  --threads/--max-batch/--deadline-us/--queue/--images: forwarded to "
      "the server\n",
      prog);
  std::exit(exit_code);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

/// One precomputed request of the trace.
struct ScheduledRequest {
  double arrival_s = 0.0;  ///< scheduled arrival, seconds from t0
  std::string model;
  std::string coding;
  std::size_t image = 0;
  std::uint64_t seed = 0;
};

/// What came back for one request id.
struct Completion {
  bool ok = false;
  bool received = false;
  std::size_t predicted = 0;
  std::size_t decision_ts = 0;
  std::size_t spikes = 0;
  double queue_us = 0.0;
  double run_us = 0.0;
  std::size_t batch = 0;
  Clock::time_point done_time;
};

/// Builds the deterministic trace: arrivals per --mode, uniform model /
/// coding / image mix, per-request seeds -- all from one Rng stream, so
/// the trace is a pure function of (options, seed).
std::vector<ScheduledRequest> build_schedule(const Options& opt,
                                             std::size_t total) {
  const std::vector<std::string> models = split_csv(opt.models);
  const std::vector<std::string> codings = split_csv(opt.codings);
  TSNN_CHECK_MSG(!models.empty() && !codings.empty(),
                 "--models / --codings resolved to nothing");
  tsnn::Rng rng = tsnn::Rng::for_stream(opt.seed, 0);
  std::vector<ScheduledRequest> schedule(total);
  double t = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    ScheduledRequest& r = schedule[i];
    if (opt.mode == "open") {
      // Poisson process: exponential inter-arrival gaps at the mean rate.
      // -log(1-u) with u in [0,1) keeps the argument strictly positive.
      t += -std::log(1.0 - rng.uniform()) / opt.rate;
    } else if (opt.mode == "burst") {
      // 100 ms on-phase at 5x rate, 400 ms silence: same mean rate as
      // `open`, maximally bunched arrivals.
      const double on_rate = 5.0 * opt.rate;
      t += 1.0 / on_rate;
      const double phase = std::fmod(t, 0.5);
      if (phase > 0.1) {
        t += 0.5 - phase;  // jump over the silent window
      }
    }  // closed: arrivals are completion-driven; arrival_s stays 0
    r.arrival_s = t;
    r.model = models[rng.uniform_index(models.size())];
    r.coding = codings[rng.uniform_index(codings.size())];
    r.image = rng.uniform_index(opt.images);
    r.seed = rng();
  }
  return schedule;
}

/// The forked tsnn_serve child plus both pipe ends.
struct Server {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write requests here
  FILE* stdout_f = nullptr;  ///< read responses here
};

Server spawn_server(const Options& opt) {
  int to_child[2];
  int from_child[2];
  TSNN_CHECK_MSG(pipe(to_child) == 0 && pipe(from_child) == 0,
                 "pipe() failed");
  const pid_t pid = fork();
  TSNN_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    const std::string threads = std::to_string(opt.threads);
    const std::string max_batch = std::to_string(opt.max_batch);
    const std::string deadline = std::to_string(opt.deadline_us);
    const std::string queue = std::to_string(opt.queue);
    const std::string images = std::to_string(opt.images);
    execl(opt.server.c_str(), opt.server.c_str(),          //
          "--models", opt.models.c_str(),                  //
          "--images", images.c_str(),                      //
          "--threads", threads.c_str(),                    //
          "--max-batch", max_batch.c_str(),                //
          "--deadline-us", deadline.c_str(),               //
          "--queue", queue.c_str(),                        //
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  Server s;
  s.pid = pid;
  s.stdin_fd = to_child[1];
  s.stdout_f = fdopen(from_child[0], "r");
  TSNN_CHECK_MSG(s.stdout_f != nullptr, "fdopen() failed");
  return s;
}

/// Blocks until the server prints its "ready" line (loading zoo models can
/// take a while on a cold artifact cache). False, reported on stderr, when
/// the server's output ends first: it exited during startup.
bool await_ready(Server& s) {
  char line[256];
  while (std::fgets(line, sizeof line, s.stdout_f) != nullptr) {
    if (std::strncmp(line, "ready ", 6) == 0) {
      return true;
    }
    TSNN_CHECK_MSG(std::strncmp(line, "model ", 6) == 0,
                   "unexpected server startup line");
  }
  std::fprintf(stderr, "error: server exited before becoming ready\n");
  return false;
}

void send_line(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = write(fd, line.data() + off, line.size() - off);
    TSNN_CHECK_MSG(n > 0, "write to server failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string request_line(std::uint64_t id, const ScheduledRequest& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%" PRIu64 " %s %s %zu %" PRIu64 "\n", id,
                r.model.c_str(), r.coding.c_str(), r.image, r.seed);
  return std::string(buf);
}

/// Runs one trace against one server: sends per the arrival schedule (or
/// completion-driven for closed mode) and collects one Completion per id.
/// `completions` must be presized to the trace length.
void run_trace(Server& server, const std::vector<ScheduledRequest>& schedule,
               const Options& opt, bool paced,
               std::vector<Completion>& completions) {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::size_t received = 0;

  std::thread reader([&] {
    char line[256];
    while (received < schedule.size() &&
           std::fgets(line, sizeof line, server.stdout_f) != nullptr) {
      const Clock::time_point now = Clock::now();
      std::uint64_t id = 0;
      Completion c;
      c.received = true;
      c.done_time = now;
      if (std::strncmp(line, "ok ", 3) == 0) {
        long long queue_us = 0;
        long long run_us = 0;
        if (std::sscanf(line, "ok %" SCNu64 " %zu %zu %zu %lld %lld %zu", &id,
                        &c.predicted, &c.decision_ts, &c.spikes, &queue_us,
                        &run_us, &c.batch) == 7) {
          c.ok = true;
          c.queue_us = static_cast<double>(queue_us);
          c.run_us = static_cast<double>(run_us);
        }
      } else if (std::sscanf(line, "err %" SCNu64, &id) != 1) {
        continue;  // stats or startup noise; not a completion
      }
      if (id < completions.size()) {
        completions[id] = c;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++received;
        if (outstanding > 0) {
          --outstanding;
        }
      }
      cv.notify_all();
    }
    // EOF before every completion arrived (server died): unblock the
    // sender; the missing ids stay !ok and count as errors.
    {
      std::lock_guard<std::mutex> lock(mutex);
      received = schedule.size();
      outstanding = 0;
    }
    cv.notify_all();
  });

  const Clock::time_point t0 = Clock::now();
  const bool closed = opt.mode == "closed";
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (paced && closed) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < opt.concurrency; });
      ++outstanding;
    } else if (paced) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(schedule[i].arrival_s));
      std::this_thread::sleep_until(due);
    }
    send_line(server.stdin_fd, request_line(i, schedule[i]));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return received >= schedule.size(); });
  }
  reader.join();
}

void shutdown_server(Server& server) {
  send_line(server.stdin_fd, "quit\n");
  close(server.stdin_fd);
  std::fclose(server.stdout_f);
  int status = 0;
  waitpid(server.pid, &status, 0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        usage(argv[0], 2);
      }
      return argv[++i];
    };
    const auto count = [&] {
      return static_cast<std::size_t>(tsnn::bench::parse_int_arg(
          argv[0], arg.c_str(), value(), /*allow_negative=*/false, usage));
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--server") {
      opt.server = value();
    } else if (arg == "--mode") {
      opt.mode = value();
    } else if (arg == "--rate") {
      opt.rate =
          tsnn::bench::parse_double_arg(argv[0], arg.c_str(), value(), usage);
    } else if (arg == "--requests") {
      opt.requests = count();
    } else if (arg == "--warmup") {
      opt.warmup = count();
    } else if (arg == "--concurrency") {
      opt.concurrency = count();
    } else if (arg == "--models") {
      opt.models = value();
    } else if (arg == "--codings") {
      opt.codings = value();
    } else if (arg == "--seed") {
      // Any 64-bit pattern is a valid seed; negative values just wrap.
      opt.seed = static_cast<std::uint64_t>(tsnn::bench::parse_int_arg(
          argv[0], arg.c_str(), value(), /*allow_negative=*/true, usage));
    } else if (arg == "--json") {
      opt.json = value();
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--threads") {
      opt.threads = count();
    } else if (arg == "--max-batch") {
      opt.max_batch = count();
      if (opt.max_batch == 0) {
        std::fprintf(stderr, "%s: --max-batch must be >= 1\n", argv[0]);
        usage(argv[0], 2);
      }
    } else if (arg == "--deadline-us") {
      opt.deadline_us = static_cast<long long>(count());
    } else if (arg == "--queue") {
      opt.queue = count();
    } else if (arg == "--images") {
      opt.images = count();
      if (opt.images == 0) {
        std::fprintf(stderr, "%s: --images must be >= 1\n", argv[0]);
        usage(argv[0], 2);
      }
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (opt.server.empty()) {
    std::fprintf(stderr, "error: --server is required\n");
    usage(argv[0], 2);
  }
  if (opt.mode != "open" && opt.mode != "burst" && opt.mode != "closed") {
    std::fprintf(stderr, "error: unknown --mode %s\n", opt.mode.c_str());
    usage(argv[0], 2);
  }
  if (opt.rate <= 0.0) {
    std::fprintf(stderr, "error: --rate must be > 0\n");
    usage(argv[0], 2);
  }

  const std::size_t total = opt.warmup + opt.requests;
  const std::vector<ScheduledRequest> schedule = build_schedule(opt, total);

  std::printf("spawning %s (threads=%zu max-batch=%zu deadline-us=%lld)\n",
              opt.server.c_str(), opt.threads, opt.max_batch, opt.deadline_us);
  Server server = spawn_server(opt);
  if (!await_ready(server)) {
    return 1;
  }
  std::printf("server ready; driving %zu requests (%zu warmup, mode=%s)\n",
              total, opt.warmup, opt.mode.c_str());

  std::vector<Completion> completions(total);
  const Clock::time_point t0 = Clock::now();
  run_trace(server, schedule, opt, /*paced=*/true, completions);
  shutdown_server(server);

  // Reduce: post-warmup only. Open/burst latency is measured against the
  // *scheduled* arrival (coordinated-omission-free); closed mode has no
  // schedule, so latency degenerates to service time there.
  tsnn::bench::LatencyStats latency;
  tsnn::bench::LatencyStats queue_time;
  tsnn::bench::LatencyStats run_time;
  double batch_sum = 0.0;
  std::size_t errors = 0;
  Clock::time_point last_done = t0;
  for (std::size_t i = opt.warmup; i < total; ++i) {
    const Completion& c = completions[i];
    if (!c.ok) {
      ++errors;
      continue;
    }
    double scheduled_us = schedule[i].arrival_s * 1e6;
    if (opt.mode == "closed") {
      scheduled_us = 0.0;  // no schedule: fall back to queue+run below
      latency.record(c.queue_us + c.run_us);
    } else {
      const double done_us =
          std::chrono::duration<double, std::micro>(c.done_time - t0).count();
      latency.record(std::max(0.0, done_us - scheduled_us));
    }
    queue_time.record(c.queue_us);
    run_time.record(c.run_us);
    batch_sum += static_cast<double>(c.batch);
    last_done = std::max(last_done, c.done_time);
  }
  const double span_s =
      std::chrono::duration<double>(last_done - t0).count();
  const double throughput =
      span_s > 0.0 ? static_cast<double>(latency.count()) / span_s : 0.0;

  const auto lat = latency.summarize();
  const auto qs = queue_time.summarize();
  const auto rs = run_time.summarize();
  std::printf(
      "latency_us: p50=%.0f p95=%.0f p99=%.0f max=%.0f (n=%zu, errors=%zu)\n"
      "queue_us:   p50=%.0f p99=%.0f   run_us: p50=%.0f p99=%.0f\n"
      "throughput: %.1f req/s, mean batch %.2f\n",
      lat.p50, lat.p95, lat.p99, lat.max, lat.count, errors, qs.p50, qs.p99,
      rs.p50, rs.p99, throughput,
      lat.count > 0 ? batch_sum / static_cast<double>(lat.count) : 0.0);

  // Bit-reproducibility pin: replay the identical trace, unpaced, against
  // a maximally different serving configuration and demand identical
  // per-request results.
  std::string verify_status = "skipped";
  if (opt.verify) {
    Options vopt = opt;
    vopt.threads = 1;
    vopt.max_batch = 1;
    vopt.deadline_us = 0;
    vopt.mode = "open";
    std::printf("verify: replaying trace with threads=1 max-batch=1\n");
    Server vserver = spawn_server(vopt);
    if (!await_ready(vserver)) {
      return 1;
    }
    std::vector<Completion> replay(total);
    run_trace(vserver, schedule, vopt, /*paced=*/false, replay);
    shutdown_server(vserver);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < total; ++i) {
      const Completion& a = completions[i];
      const Completion& b = replay[i];
      if (a.ok != b.ok || a.predicted != b.predicted ||
          a.decision_ts != b.decision_ts || a.spikes != b.spikes) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "verify MISMATCH id=%zu: run(pred=%zu ts=%zu sp=%zu "
                       "ok=%d) replay(pred=%zu ts=%zu sp=%zu ok=%d)\n",
                       i, a.predicted, a.decision_ts, a.spikes, a.ok,
                       b.predicted, b.decision_ts, b.spikes, b.ok);
        }
      }
    }
    verify_status = mismatches == 0 ? "ok" : "mismatch";
    std::printf("verify: %s (%zu/%zu requests bit-identical)\n",
                verify_status.c_str(), total - mismatches, total);
  }

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", opt.json.c_str());
    } else {
      using tsnn::bench::LatencyStats;
      std::string doc = "{\n";
      doc += "  \"bench\": \"serve_loadgen\",\n";
      doc += "  \"mode\": \"" + tsnn::bench::json_escape(opt.mode) + "\",\n";
      doc += "  \"rate_rps\": " + std::to_string(opt.rate) + ",\n";
      doc += "  \"requests\": " + std::to_string(opt.requests) + ",\n";
      doc += "  \"warmup\": " + std::to_string(opt.warmup) + ",\n";
      doc += "  \"threads\": " + std::to_string(opt.threads) + ",\n";
      doc += "  \"max_batch\": " + std::to_string(opt.max_batch) + ",\n";
      doc += "  \"deadline_us\": " + std::to_string(opt.deadline_us) + ",\n";
      doc +=
          "  \"models\": \"" + tsnn::bench::json_escape(opt.models) + "\",\n";
      doc += "  \"codings\": \"" + tsnn::bench::json_escape(opt.codings) +
             "\",\n";
      doc += "  \"latency_us\": " + LatencyStats::json(lat) + ",\n";
      doc += "  \"queue_us\": " + LatencyStats::json(qs) + ",\n";
      doc += "  \"run_us\": " + LatencyStats::json(rs) + ",\n";
      doc += "  \"throughput_rps\": " + std::to_string(throughput) + ",\n";
      doc += "  \"mean_batch\": " +
             std::to_string(lat.count > 0
                                ? batch_sum / static_cast<double>(lat.count)
                                : 0.0) +
             ",\n";
      doc += "  \"errors\": " + std::to_string(errors) + ",\n";
      doc += "  \"verify\": \"" + verify_status + "\"\n";
      doc += "}\n";
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      std::printf("json: %s\n", opt.json.c_str());
    }
  }
  return verify_status == "mismatch" ? 1 : 0;
}
