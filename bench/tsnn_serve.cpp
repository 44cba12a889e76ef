// tsnn_serve: long-running inference server over a stdin/stdout line
// protocol (zero new dependencies -- pipes are the transport).
//
// Startup loads and converts the requested zoo models (through the TSNZ
// artifact cache), spins up a core::InferenceServer, and prints:
//
//   model <name> <num_images>        (one per loaded model)
//   ready <num_models>
//
// then serves one request per stdin line until EOF or "quit":
//
//   <id> <model> <coding> <image_index> <seed>
//
// e.g. "17 s-mnist ttas(5) 3 42": exactly five whitespace-separated
// fields, with <id>, <image_index> and <seed> plain decimal digits that
// fit 64 bits (no sign, no prefix). Each request line gets exactly one
// answer:
//
//   ok <id> <predicted> <decision_ts> <spikes> <queue_us> <run_us> <batch>
//   err <id> <reason>
//
// A line that breaks the grammar answers "err <id> bad_request_line" when
// its first field parses as an id, and "err 0 bad_request_line" when it
// does not.
//
// Responses arrive in *completion* order, not submission order -- clients
// match on <id>. "stats" prints a one-line counter snapshot. Determinism:
// a request's result is a pure function of (model, coding, image, seed)
// via Rng::for_stream(seed, 0) -- replaying a trace is bit-identical under
// any --threads/--max-batch/--deadline-us (bench/serve_loadgen --verify
// pins this end to end).
//
// Flags: --models a,b,... --images N --threads N --max-batch N
//        --deadline-us N --queue N  (see usage()).
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/request_queue.h"
#include "core/scenario.h"
#include "core/serve.h"

namespace {

using tsnn::core::InferenceServer;

/// Usage goes to stdout only for --help; on an error it goes to stderr,
/// so the protocol stream stays empty.
[[noreturn]] void usage(const char* prog, int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: %s [--models a,b,...] [--images N] [--threads N]\n"
      "          [--max-batch N] [--deadline-us N] [--queue N]\n"
      "  --models       comma-separated zoo datasets to load (default "
      "s-mnist)\n"
      "  --images       test images kept per model (default 64)\n"
      "  --threads      serving workers, 0 = hardware (default 1)\n"
      "  --max-batch    micro-batch size cap per worker pull (default 8)\n"
      "  --deadline-us  hold underfull batches open this long (default 0)\n"
      "  --queue        admission queue capacity, 0 = auto (default 0)\n"
      "stdin, one request per line (or stats, or quit):\n"
      "  <id> <model> <coding> <image> <seed>\n"
      "  exactly five fields; id, image and seed are plain decimal digits\n"
      "  that fit 64 bits. A line that breaks this answers\n"
      "  'err <id> bad_request_line', or 'err 0 bad_request_line' when the\n"
      "  id itself does not parse.\n",
      prog);
  std::exit(exit_code);
}

/// A request line's fields: `id_ok` once the first field parsed as an id,
/// `ok` once the whole line did.
struct RequestLine {
  bool id_ok = false;
  bool ok = false;
  std::uint64_t id = 0;
  std::string model;
  std::string coding;
  std::uint64_t image = 0;
  std::uint64_t seed = 0;
};

/// Plain decimal digits that fit 64 bits: no sign, no prefix, no space.
bool parse_decimal(std::string_view field, std::uint64_t& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return !field.empty() && ec == std::errc() && ptr == end;
}

RequestLine parse_request_line(std::string_view line) {
  std::vector<std::string_view> fields;
  constexpr std::string_view kSpace = " \t\r\v\f";
  for (std::size_t pos = line.find_first_not_of(kSpace);
       pos != std::string_view::npos;
       pos = line.find_first_not_of(kSpace, pos)) {
    const std::size_t end = std::min(line.find_first_of(kSpace, pos), line.size());
    fields.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  RequestLine req;
  req.id_ok = !fields.empty() && parse_decimal(fields[0], req.id);
  if (req.id_ok && fields.size() == 5 && parse_decimal(fields[3], req.image) &&
      parse_decimal(fields[4], req.seed)) {
    req.model = fields[1];
    req.coding = fields[2];
    req.ok = true;
  }
  return req;
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

/// Serialized response channel: completions (worker threads) and protocol
/// replies (main thread) push whole lines; one writer thread owns stdout.
using OutputQueue = tsnn::RequestQueue<std::string>;

/// Formats completions into protocol lines. Shared by every request; the
/// response id is the correlation key.
class LineSink final : public InferenceServer::CompletionSink {
 public:
  explicit LineSink(OutputQueue* out) : out_(out) {}

  void on_complete(const InferenceServer::Response& resp) override {
    char line[160];
    if (resp.error) {
      std::snprintf(line, sizeof line, "err %" PRIu64 " execution_failed\n",
                    resp.id);
    } else {
      const auto us = [](InferenceServer::Clock::time_point a,
                         InferenceServer::Clock::time_point b) {
        return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count();
      };
      std::snprintf(line, sizeof line,
                    "ok %" PRIu64 " %zu %zu %zu %lld %lld %zu\n", resp.id,
                    resp.result->predicted_class,
                    resp.result->decision_timestep, resp.result->total_spikes,
                    static_cast<long long>(
                        us(resp.submit_time, resp.start_time)),
                    static_cast<long long>(us(resp.start_time, resp.done_time)),
                    resp.batch_size);
    }
    out_->push(std::string(line));
  }

 private:
  OutputQueue* out_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string models_flag = "s-mnist";
  std::size_t images = 64;
  tsnn::core::ServeOptions serve;
  serve.num_threads = 1;

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
    } else if (arg == "--models") {
      models_flag = value();
    } else if (arg == "--images") {
      images = count();
      if (images == 0) {
        std::fprintf(stderr, "%s: --images must be >= 1\n", argv[0]);
        usage(argv[0], 2);
      }
    } else if (arg == "--threads") {
      serve.num_threads = count();
    } else if (arg == "--max-batch") {
      serve.max_batch = count();
      if (serve.max_batch == 0) {
        std::fprintf(stderr, "%s: --max-batch must be >= 1\n", argv[0]);
        usage(argv[0], 2);
      }
    } else if (arg == "--deadline-us") {
      serve.batch_deadline = std::chrono::microseconds(count());
    } else if (arg == "--queue") {
      serve.queue_capacity = count();
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }

  // Load every requested model up front (startup, not serving, pays the
  // conversion cost; TSNZ artifact hits make restarts cheap).
  std::map<std::string, tsnn::core::ZooWorkload> workloads;
  for (const std::string& name : split_csv(models_flag)) {
    tsnn::core::DatasetKind kind;
    if (!tsnn::core::dataset_kind_from_name(name, &kind)) {
      std::fprintf(stderr, "error: unknown zoo dataset '%s'\n", name.c_str());
      usage(argv[0], 2);
    }
    workloads.emplace(name, tsnn::core::load_zoo_workload(kind, images));
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "error: --models resolved to nothing\n");
    usage(argv[0], 2);
  }

  OutputQueue out(1024);
  // Declared before the server: ~InferenceServer drains in-flight requests,
  // which point at the sink and the schemes.
  LineSink sink(&out);
  // Coding schemes are created lazily per label, on the submission thread
  // only -- workers see them through const pointers.
  std::map<std::string, tsnn::snn::CodingSchemePtr> schemes;
  // Built before the writer thread starts, so a configuration the server
  // cannot hold (an oversized --queue or --max-batch) exits through this
  // one line, with nothing on stdout.
  std::optional<InferenceServer> server;
  try {
    server.emplace(serve);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot start the server: %s\n", e.what());
    usage(argv[0], 2);
  }

  std::thread writer([&out] {
    std::string line;
    while (out.pop(line)) {
      std::fputs(line.c_str(), stdout);
      std::fflush(stdout);  // clients block on whole lines
    }
  });

  for (const auto& [name, w] : workloads) {
    char line[96];
    std::snprintf(line, sizeof line, "model %s %zu\n", name.c_str(),
                  w.test_images.size());
    out.push(std::string(line));
  }
  out.push("ready " + std::to_string(workloads.size()) + "\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    if (line == "quit") {
      break;
    }
    if (line == "stats") {
      const InferenceServer::Stats s = server->stats();
      char buf[224];
      std::snprintf(buf, sizeof buf,
                    "stats submitted=%" PRIu64 " completed=%" PRIu64
                    " errors=%" PRIu64 " batches=%" PRIu64
                    " mean_batch=%.2f max_batch=%zu max_queue_depth=%zu\n",
                    s.submitted, s.completed, s.errors, s.batches,
                    s.mean_batch(), s.max_batch, s.max_queue_depth);
      out.push(std::string(buf));
      continue;
    }
    const RequestLine request = parse_request_line(line);
    const std::uint64_t id = request.id;
    if (!request.ok) {
      out.push("err " + std::to_string(request.id_ok ? id : 0) +
               " bad_request_line\n");
      continue;
    }
    const std::string& coding = request.coding;
    const auto it = workloads.find(request.model);
    if (it == workloads.end()) {
      out.push("err " + std::to_string(id) + " unknown_model\n");
      continue;
    }
    const tsnn::core::ZooWorkload& w = it->second;
    if (request.image >= w.test_images.size()) {
      out.push("err " + std::to_string(id) + " image_out_of_range\n");
      continue;
    }
    auto scheme = schemes.find(coding);
    if (scheme == schemes.end()) {
      try {
        const tsnn::core::MethodSpec spec =
            tsnn::core::parse_method_label(coding);
        scheme = schemes
                     .emplace(coding, tsnn::coding::make_scheme(spec.coding,
                                                                spec.params))
                     .first;
      } catch (const std::exception&) {
        out.push("err " + std::to_string(id) + " unknown_coding\n");
        continue;
      }
    }

    InferenceServer::Request req;
    req.id = id;
    req.sink = &sink;
    req.work.sim.model = &w.conversion.model;
    req.work.sim.scheme = scheme->second.get();
    req.work.image = &w.test_images[request.image];
    req.work.seed = request.seed;
    req.work.stream = 0;
    if (!server->submit(req)) {  // blocking admission = backpressure
      out.push("err " + std::to_string(id) + " server_closed\n");
    }
  }
  // Executes every admitted request, so each pending completion reaches
  // the output queue before it closes.
  server->shutdown();
  out.close();
  writer.join();
  return 0;
}
