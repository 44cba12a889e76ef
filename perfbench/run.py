#!/usr/bin/env python3
"""TSNN benchmark: paper-grid throughput, temporal-coding grid, online serving.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json
    python3 perfbench/run.py --regen-refs          # regenerate perfbench/refs

The first run builds perfbench/CMakeLists.txt (Release) into the build
directory ($CARGO_TARGET_DIR, default .bench_build) and prepares the model zoo
there by training the three full-size models once, outside every timed run.

Workloads (see WORKLOADS): two scenario grids run through the public
`run_scenarios --file` CLI. With --trace 0 the run measures the named
workload's end-to-end metrics. With --trace 1 it runs the traced per-layer
profile instead and reports the per-layer metrics. That profile always covers
every workload, whatever --workload and --seconds say, because every traced
run must report the whole per-layer list: perfbench/trace_replay replays both
grids, and `serve_loadgen --verify` drives one `tsnn_serve` session. Every
grid run checks its rows against the committed references in perfbench/refs;
the serve session must match its own unbatched replay. Each run prints, as
its last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
Detailed results, provenance and the Chrome trace land in <build>/results/.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 25
# The workload seed selects one of REF_INPUTS committed input sets: the grids'
# noise seed is GRID_SEED_BASE + seed % REF_INPUTS, so every run can be
# checked against a committed reference row set.
REF_INPUTS = 16
GRID_SEED_BASE = 48879

# The traced run's serving session, the source of the core.serve.* metrics:
# serve_loadgen driving tsnn_serve with a 30x service-time mix, 100 warm-up
# then 1000 measured Poisson arrivals. The rate is about half the
# closed-loop capacity of the seed commit when its 4-vCPU x86-64 VM
# (avx2+fma table) is slow (330-460 req/s; 470-630 when quiet).
SERVE_ARGS = ["--mode", "open", "--models", "s-mnist,s-cifar10",
              "--codings", "rate,burst,ttfs,ttas(5)", "--images", "64",
              "--threads", "2", "--max-batch", "8", "--rate", "150",
              "--warmup", "100", "--requests", "1000", "--verify"]

WORKLOADS = {
    "grid_table1_deletion": {
        "spec": "specs/grid_table1_deletion.txt",
        "scenario": "table1_deletion",
        "images": 8,
        "threads": 1,
        "why": "The paper's Table I on 1 thread: conv1a/conv1b dominate "
               "rate/phase/burst, deletion compacts every train, and the "
               "grid scheduler is bypassed.",
    },
    "grid_temporal_jitter": {
        "spec": "specs/grid_temporal_jitter.txt",
        "scenario": "temporal_jitter",
        "images": 48,
        "threads": 2,
        "why": "TTFS/TTAS under jitter on 2 threads: sparse trains put "
               "encode, jitter re-bucketing, readout and run_grid dispatch "
               "ahead of the conv kernels.",
    },
}

# Bounds are wide because single-thread speed on a shared 4-vCPU VM swings
# between two levels about 30% apart, for minutes at a time.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("images_per_s", "1/s", "higher", 0.25),
]

GRID_CODINGS = {
    "grid_table1_deletion": ["rate", "phase", "burst", "ttfs", "ttas5"],
    "grid_temporal_jitter": ["ttfs", "ttas5", "ttas10"],
}
DATASETS = ["s-mnist", "s-cifar10", "s-cifar20"]
SINGLE_STAGE_DATASET = "s-cifar10"
SINGLE_STAGES = ["conv1a", "conv1b", "pool1"]
# The traced parts (encode, noise, stages, readout) must add up to the
# untraced execute_request time within this share, per (workload, coding).
PARTS_SHARE = 0.15


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("core.zoo.load_s." + d, "s") for d in DATASETS]
    for wl, codings in GRID_CODINGS.items():
        for c in codings:
            key = wl + "." + c
            out += [("coding.encode_us." + key, "us"),
                    ("noise.apply_us." + key, "us"),
                    ("noise.events_in_per_img." + key, "count"),
                    ("noise.events_out_per_img." + key, "count")]
            out += [("snn.stage_us.%s.%s" % (key, s), "us")
                    for s in SINGLE_STAGES]
            out += [("snn.stage_spikes_out.%s.%s" % (key, s), "count")
                    for s in SINGLE_STAGES]
            out.append(("snn.readout_us." + key, "us"))
            out += [("snn.execute_us.%s.%s.%s" % (wl, d, c), "us")
                    for d in DATASETS]
        out.append(("core.experiment.busy_frac." + wl, "frac"))
        out.append(("trace.slowdown." + wl, "ratio"))
    out += [("core.serve.queue_us_p50", "us"), ("core.serve.queue_us_p99", "us"),
            ("core.serve.run_us_p50", "us"), ("core.serve.run_us_p99", "us"),
            ("core.serve.mean_batch", "count")]
    return out


HIGHER_IS_BETTER = ("core.experiment.busy_frac.",)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n.startswith(HIGHER_IS_BETTER)
                       else "lower"}
                      for n, u in per_layer_metrics()],
    }


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def coding_key(label):
    """'ttas(5)+WS' -> 'ttas5' (metric names allow no parentheses)."""
    return label.replace("+WS", "").replace("(", "").replace(")", "")


class Bench:
    def __init__(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build = build if os.path.isabs(build) else os.path.join(ROOT, build)
        self.cmake_dir = os.path.join(self.build, "cmake")
        self.bin = os.path.join(self.cmake_dir, "bin")
        self.zoo = os.path.join(self.build, "zoo")
        self.results = os.path.join(self.build, "results")
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("TSNN_FAST", "TSNN_STEPPED", "TSNN_NO_MMAP",
                                 "TSNN_LOG_LEVEL")
                    and not k.startswith("TSNN_BENCH_")}
        self.env["TSNN_ZOO_DIR"] = self.zoo
        self.isa = None

    def tool(self, name):
        return os.path.join(self.bin, name)

    def run(self, args, timeout=170, **kw):
        try:
            return subprocess.run(args, env=self.env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, **kw)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: " + " ".join(args))

    def check(self, args, timeout=170):
        p = self.run(args, timeout)
        if p.returncode != 0:
            raise BenchError("%s exited %d: %s" % (os.path.basename(args[0]),
                                                   p.returncode, p.stderr[-2000:]))
        return p

    # -- build and zoo -----------------------------------------------------
    def build_tools(self):
        for need in ("CMakeLists.txt", "src", "bench"):
            if not os.path.exists(os.path.join(ROOT, need)):
                raise BenchError("not a TSNN source checkout (no %s)" % need)
        os.makedirs(self.results, exist_ok=True)
        with open(os.path.join(self.build, "build.log"), "a") as logf:
            def step(args):
                if subprocess.run(args, cwd=ROOT, stdout=logf, stderr=logf,
                                  timeout=880).returncode != 0:
                    raise BenchError("build failed; see %s/build.log" % self.build)
            if not os.path.exists(os.path.join(self.cmake_dir, "CMakeCache.txt")):
                step(["cmake", "-S", HERE, "-B", self.cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
            step(["cmake", "--build", self.cmake_dir, "--target", "perfbench_all",
                  "-j", str(min(4, os.cpu_count() or 1))])

    def zoo_check(self, datasets):
        """Loads each dataset in its own process (a miss trains, so cold
        datasets train in parallel); returns {dataset: record}."""
        procs = {d: subprocess.Popen([self.tool("trace_replay"), "--zoo", d],
                                     env=self.env, cwd=ROOT, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
                 for d in datasets}
        out = {}
        for d, p in procs.items():
            try:
                stdout, stderr = p.communicate(timeout=880)
            except subprocess.TimeoutExpired:
                for q in procs.values():
                    q.kill()
                    q.wait()
                raise BenchError("zoo preparation timed out")
            if p.returncode != 0:
                raise BenchError("zoo preparation of %s failed: %s" % (d, stderr))
            out[d] = json.loads(stdout.strip().splitlines()[-1])
        return out

    def prepare_zoo(self):
        """Warm-zoo guard: trains missing models once, then requires every
        dataset to load from its artifact."""
        check = self.zoo_check(DATASETS)
        if not all(r["artifact_hit"] for r in check.values()):
            log("zoo: trained %s" % ", ".join(
                d for d, r in check.items() if not r["artifact_hit"]))
            check = self.zoo_check(DATASETS)
        if not all(r["artifact_hit"] for r in check.values()):
            raise BenchError("zoo artifacts do not load from cache")
        self.isa = check[DATASETS[0]]["isa"]
        self.artifacts = {d: r["artifact"] for d, r in check.items()}
        return check

    def artifact_state(self):
        return {d: (os.stat(p).st_size, os.stat(p).st_mtime_ns)
                for d, p in self.artifacts.items()}

    def provenance(self, workload, seed):
        build_type = "unknown"
        with open(os.path.join(self.cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
        commit = "none"
        if os.path.exists(os.path.join(ROOT, ".git")):
            p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = p.stdout.strip() or "none"
        tree = hashlib.sha256()
        for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
            base = os.path.join(ROOT, top)
            paths = [base] if os.path.isfile(base) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
            for path in paths:
                tree.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    tree.update(f.read())
        artifacts = {}
        for d, path in self.artifacts.items():
            with open(path, "rb") as f:
                artifacts[d] = {"file": os.path.basename(path),
                                "sha256": hashlib.sha256(f.read()).hexdigest()}
        return {"workload": workload, "seed": seed,
                "input": seed % REF_INPUTS, "isa": self.isa,
                "nproc": os.cpu_count(), "build_type": build_type,
                "commit": commit, "source_sha256": tree.hexdigest(),
                "zoo_artifacts": artifacts}

    # -- references ----------------------------------------------------------
    def grid_refs(self, name):
        refs = {}
        with open(os.path.join(HERE, "refs", name + ".csv")) as f:
            for row in csv.DictReader(f):
                refs.setdefault(int(row.pop("input")), []).append(
                    [row[k] for k in ("method", "level", "accuracy",
                                      "mean_spikes", "mean_decision_timesteps")])
        return refs

    # -- grid workloads ------------------------------------------------------
    def run_scenarios(self, w, noise_seed, tag, threads=None):
        out_dir = os.path.join(self.results, tag)
        os.makedirs(out_dir, exist_ok=True)
        json_path = os.path.join(out_dir, "suite.json")
        t0 = time.perf_counter()
        self.check([self.tool("run_scenarios"), "--file",
                    os.path.join(HERE, w["spec"]), "--images", str(w["images"]),
                    "--seed", str(noise_seed), "--threads",
                    str(threads or w["threads"]), "--out", out_dir,
                    "--json", json_path])
        wall = time.perf_counter() - t0
        with open(json_path) as f:
            doc = json.load(f)
        with open(os.path.join(out_dir, w["scenario"] + ".csv")) as f:
            reader = csv.reader(f)
            next(reader)
            rows = [r for r in reader]
        return wall, doc, rows

    def grid(self, name, seed, seconds):
        w = WORKLOADS[name]
        expected = self.grid_refs(name)[seed % REF_INPUTS]
        noise_seed = GRID_SEED_BASE + seed % REF_INPUTS
        invocations = []
        attempted = failed = 0
        start = time.perf_counter()
        while len(invocations) < 3 or time.perf_counter() - start < seconds:
            wall, doc, rows = self.run_scenarios(w, noise_seed,
                                                 "%s-run" % name)
            m = doc["metrics"]
            if m["zoo_artifact_hits"] < m["zoo_loads"]:
                raise BenchError("run_scenarios zoo prep missed the artifact "
                                 "cache (%d of %d hits); refusing to report"
                                 % (m["zoo_artifact_hits"], m["zoo_loads"]))
            attempted += len(expected)
            failed += sum(1 for i, ref in enumerate(expected)
                          if i >= len(rows) or rows[i] != ref)
            failed += max(0, len(rows) - len(expected))
            invocations.append({"wall_s": wall, "sweep_s": m["sweep_seconds"],
                                "setup_s": wall - m["sweep_seconds"],
                                "images": m["images_executed"],
                                "images_per_s": m["images_per_sec"],
                                "isa": doc["isa"]})
        metrics = {
            "setup_s": statistics.median(i["setup_s"] for i in invocations),
            "images_per_s": statistics.median(i["images_per_s"]
                                              for i in invocations),
        }
        detail = {"invocations": invocations, "noise_seed": noise_seed}
        return metrics, attempted, failed, detail

    # -- serving -------------------------------------------------------------
    def serve_session(self, seed):
        """One serve_loadgen session. It sends `quit` only after every
        response, counts err lines and missing responses as errors, and
        replays the trace unbatched on one thread, which must give the same
        (class, decision timestep, spikes) for every request. Returns the
        serve_loadgen JSON, the requests sent and the failed ones."""
        out = os.path.join(self.results, "serve-trace.json")
        if os.path.exists(out):
            os.remove(out)  # serve_loadgen only warns when it cannot write
        before = self.artifact_state()
        p = self.run([self.tool("serve_loadgen"), "--server",
                      self.tool("tsnn_serve"), "--seed", str(seed),
                      "--json", out] + SERVE_ARGS)
        verify = re.search(r"^verify: (\w+) \((\d+)/(\d+) requests", p.stdout,
                           re.M)
        if p.returncode not in (0, 1) or not verify:
            raise BenchError("serve_loadgen exited %d: %s"
                             % (p.returncode, p.stderr[-2000:]))
        if self.artifact_state() != before:
            raise BenchError("zoo artifacts changed during serving (cache miss); "
                             "refusing to report")
        with open(out) as f:
            doc = json.load(f)
        sent = int(verify.group(3))
        mismatches = sent - int(verify.group(2))
        return doc, sent, min(sent, doc["errors"] + mismatches)

    # -- traced run ------------------------------------------------------------
    def trace_grid(self, name, seed, tag):
        w = WORKLOADS[name]
        json_path = os.path.join(self.results, tag + ".json")
        trace_path = os.path.join(self.results, tag + ".trace.json")
        p = self.run([self.tool("trace_replay"), "--spec",
                      os.path.join(HERE, w["spec"]), "--images", str(w["images"]),
                      "--seed", str(GRID_SEED_BASE + seed % REF_INPUTS),
                      "--threads", str(w["threads"]), "--json", json_path,
                      "--trace", trace_path])
        if p.returncode != 0:
            raise BenchError("trace rejected for %s: %s" % (name, p.stderr[-2000:]))
        with open(json_path) as f:
            doc = json.load(f)
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        if len(events) != doc["spans"]:
            raise BenchError("trace file of %s is incomplete" % name)
        expected = self.grid_refs(name)[seed % REF_INPUTS]
        rows = [[d + "/" + m, lvl, acc, sp, ts]
                for d, m, lvl, acc, sp, ts in doc["rows"]]
        failed = sum(1 for a, b in zip(rows, expected) if a != b)
        failed += abs(len(rows) - len(expected))
        return doc, len(expected), failed

    def traced(self, seed):
        metrics, attempted, failed, detail = {}, 0, 0, {}
        for name in GRID_CODINGS:
            doc, att, fail = self.trace_grid(name, seed,
                                             "%s-trace-seed%d" % (name, seed))
            attempted += att
            failed += fail
            missed = [z["dataset"] for z in doc["zoo"] if not z["artifact_hit"]]
            if missed:
                raise BenchError("trace_replay zoo load missed the artifact "
                                 "cache for %s; refusing to report"
                                 % ", ".join(missed))
            if name == "grid_table1_deletion":
                for z in doc["zoo"]:
                    metrics["core.zoo.load_s." + z["dataset"]] = z["load_s"]
            gaps = {}
            for c in GRID_CODINGS[name]:
                gs = [g for g in doc["groups"] if coding_key(g["method"]) == c]
                n = sum(g["images"] for g in gs)
                key = name + "." + c
                tot = lambda k: sum(g[k] for g in gs)
                metrics["coding.encode_us." + key] = tot("encode_ns") / n / 1e3
                metrics["noise.apply_us." + key] = tot("noise_ns") / n / 1e3
                metrics["noise.events_in_per_img." + key] = tot("noise_events_in") / n
                metrics["noise.events_out_per_img." + key] = tot("noise_events_out") / n
                metrics["snn.readout_us." + key] = tot("readout_ns") / n / 1e3
                for g in gs:
                    metrics["snn.execute_us.%s.%s.%s" % (name, g["dataset"], c)] = (
                        g["execute_ns"] / g["images"] / 1e3)
                    if g["dataset"] == SINGLE_STAGE_DATASET:
                        for s in g["stages"]:
                            if s["name"] in SINGLE_STAGES:
                                metrics["snn.stage_us.%s.%s" % (key, s["name"])] = (
                                    s["ns"] / g["images"] / 1e3)
                                metrics["snn.stage_spikes_out.%s.%s"
                                        % (key, s["name"])] = (
                                    s["spikes_out"] / g["images"])
                parts = sum(tot(k) for k in ("encode_ns", "noise_ns", "readout_ns"))
                parts += sum(s["ns"] for g in gs for s in g["stages"])
                gaps[c] = abs(parts - tot("execute_ns")) / tot("execute_ns")
            execute_s = sum(g["execute_ns"] for g in doc["groups"]) / 1e9
            traced_s = sum(g["traced_ns"] for g in doc["groups"]) / 1e9
            metrics["core.experiment.busy_frac." + name] = (
                doc["grid_serial_wall_s"] /
                (doc["grid_wall_s"] * WORKLOADS[name]["threads"]))
            metrics["trace.slowdown." + name] = traced_s / execute_s
            bad = {c: g for c, g in gaps.items() if g > PARTS_SHARE}
            if bad:
                raise BenchError("trace rejected for %s: per-layer parts miss "
                                 "execute_us by more than %.0f%%: %s"
                                 % (name, PARTS_SHARE * 100, bad))
            detail[name] = {
                "images": doc["selfcheck_images"], "spans": doc["spans"],
                "selfcheck_mismatches": doc["selfcheck_mismatches"],
                "parts_gap": gaps,
                "traced_images_per_s": doc["selfcheck_images"] / traced_s,
                "untraced_images_per_s": doc["selfcheck_images"] / execute_s,
                "trace_file": os.path.join(self.results, "%s-trace-seed%d.trace.json"
                                           % (name, seed)),
                "groups": doc["groups"]}
            log("trace %s: %d images, %d spans, self-check ok, tracing "
                "overhead %.1f%% (%.1f vs %.1f img/s untraced)"
                % (name, doc["selfcheck_images"], doc["spans"],
                   (traced_s / execute_s - 1) * 100,
                   detail[name]["traced_images_per_s"],
                   detail[name]["untraced_images_per_s"]))
        serve, sent, fail = self.serve_session(seed)
        attempted += sent
        failed += fail
        for stat in ("queue_us", "run_us"):
            for pct in ("p50", "p99"):
                metrics["core.serve.%s_%s" % (stat, pct)] = (
                    serve[stat][pct + "_us"])
        metrics["core.serve.mean_batch"] = serve["mean_batch"]
        detail["serve"] = serve
        return metrics, attempted, failed, detail

    # -- reference regeneration -------------------------------------------------
    def regen_refs(self):
        os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
        for name, w in WORKLOADS.items():
            with open(os.path.join(HERE, "refs", name + ".csv"), "w",
                      newline="") as f:
                out = csv.writer(f, lineterminator="\n")
                out.writerow(["input", "method", "level", "accuracy",
                              "mean_spikes", "mean_decision_timesteps"])
                for k in range(REF_INPUTS):
                    _, _, rows = self.run_scenarios(w, GRID_SEED_BASE + k,
                                                    "regen-" + name, threads=1)
                    out.writerows([k] + r for r in rows)
            log("refs: %s (%d inputs)" % (name, REF_INPUTS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--regen-refs", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if not args.workload and not args.regen_refs:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bench = Bench()
    try:
        bench.build_tools()
        bench.prepare_zoo()
        if args.regen_refs:
            bench.regen_refs()
            return 0
        # The traced profile covers every workload (see the module docstring).
        covered = "all" if args.trace else args.workload
        prov = bench.provenance(covered, args.seed)
        log("provenance: " + json.dumps(prov, sort_keys=True))
        if args.trace:
            metrics, attempted, failed, detail = bench.traced(args.seed)
            units = dict(per_layer_metrics())
        else:
            metrics, attempted, failed, detail = bench.grid(
                args.workload, args.seed, args.seconds)
            units = {n: u for n, u, _, _ in END_TO_END}
    except (BenchError, OSError, ValueError, KeyError, ZeroDivisionError) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1

    if set(metrics) != set(units):
        print("benchmark error: metric set mismatch: %s"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    log("error_rate = %.6f (%d failed of %d attempted)"
        % (failed / attempted, failed, attempted))
    for name in units:
        log("%s = %.6g %s" % (name, metrics[name], units[name]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in units}}
    path = os.path.join(bench.results, "%s-seed%d-trace%d.json"
                        % (covered, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"provenance": prov, "result": result, "detail": detail}, f,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
