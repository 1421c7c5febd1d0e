#!/usr/bin/env python3
"""End-to-end benchmark of `rlslb run`, timed from outside.

    python3 perfbench/run.py --workload adversarial_1k --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the CLI and perfbench_traced into
$CARGO_TARGET_DIR (default .bench_build), then:

  --trace 0  times whole `rlslb run <scenario> ... --threads=1 --seed=<S>
             --conformance=on` child processes and reports the end-to-end
             metrics (wall time, events/sec, set-up time, peak RSS, gap,
             share of invocations that passed their checks);
  --trace 1  alternates untraced CLI invocations with perfbench_traced
             (perfbench/traced_run.cpp) and reports per-layer times that,
             with harness.residual_s and harness.trace_overhead_s, add up
             to the traced wall time.

Every invocation's output is checked (checks.py); the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. Medians,
quartiles, sample counts, the machine description and the determinism
digest go to $CARGO_TARGET_DIR/results/. README.md documents the workloads
and the metric map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

# Each workload keeps a different layer busy; README.md gives the measured
# shares. `setup` is the same invocation cut to its smallest accepted input.
WORKLOADS = {
    "adversarial_1k": {
        "scenario": "serve_adversarial",
        "params": {"n": "1024", "events": "40000000"},
        "setup": {"n": "1024", "events": "1024"},
    },
    "frontier_1m": {
        "scenario": "serve_capacity",
        "params": {"n_list": "1000000", "load_list": "1", "epb": "2"},
        "setup": {"n_list": "1000000", "load_list": "0.001", "epb": "1"},
    },
    "theorem1_rls": {
        "scenario": "process_compare",
        "params": {"process": "rls", "n": "65536", "ratio": "8", "start": "allinone",
                   "target": "perfect", "reps": "32"},
        "setup": {"process": "rls", "n": "65536", "ratio": "8", "start": "allinone",
                  "target": "time", "horizon": "0.001", "reps": "32"},
    },
}

# Top-level layers: they partition the wall time (sub-phases such as
# serve.decide_s are read off the loop and sit inside serve.loop_s).
SUM_LAYERS = ["workload.gen_s", "serve.loop_s", "capacity.loop_s", "obs.observe_s",
              "config.build_s", "sim.naive_s", "sim.jump_s"]

MIN_ROUNDS = {0: 3, 1: 2}  # measured rounds per run, whatever --seconds says
SETUPS_PER_ROUND = 3
CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # stop starting rounds past this, to exit within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the two targets (a no-op when current)."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "rlslb_cli", "perfbench_traced"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("build failed: %s" % " ".join(cmd))
                sys.exit(1)
    return (os.path.join(cmake_dir, "examples", "rlslb"),
            os.path.join(cmake_dir, "perfbench", "perfbench_traced"))


def pin():
    """Pin this process, and so every child it starts, to one allowed CPU.

    This is the call `taskset` makes; making it once here saves an extra
    exec per child, a quarter of the ~3 ms set-up invocation. Returns the
    CPU, or None where the platform has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = sorted(os.sched_getaffinity(0))[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(cmd, stdout_path):
    """Run `cmd` to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "allowed_cpus": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), "cpu_model": model}


def summarize(values):
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0] if vals else 0.0
    return {"median": statistics.median(vals) if vals else 0.0, "q1": q1, "q3": q3,
            "n": len(vals)}


class Runner:
    def __init__(self, name, seed, work_dir, cli, traced):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.cli = cli
        self.traced = traced
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def _fail(self, what, reasons):
        self.failures.append({"invocation": what, "reasons": reasons})
        log("FAILED %s: %s" % (what, "; ".join(reasons)))

    def cli_run(self, kind):
        """One CLI invocation of the full ("params") or cut ("setup") input:
        (wall s, peak RSS MB, facts), or None when it failed."""
        params = self.w[kind]
        out = os.path.join(self.work_dir, "%s.jsonl" % kind)
        cmd = [self.cli, "run", self.w["scenario"]]
        cmd += ["%s=%s" % kv for kv in params.items() if kv[0] != "reps"]
        if "reps" in params:
            cmd.append("--reps=%s" % params["reps"])
        cmd += ["--threads=1", "--seed=%d" % self.seed, "--conformance=on", "--out=" + out]
        if os.path.exists(out):
            os.remove(out)
        self.attempted += 1
        code, wall, rss = spawn(cmd, os.path.join(self.work_dir, "%s.console" % kind))
        if code != 0:
            self._fail(kind, ["exit code %d" % code])
            return None
        with open(out) as f:
            text = f.read()
        errors, facts = checks.check_invocation(text, self.w["scenario"], params)
        digest = checks.table_digest(text)
        if self.digests.setdefault(kind, digest) != digest:
            errors.append("table records differ from this run's first %s invocation" % kind)
        if errors:
            self._fail(kind, errors)
            return None
        return wall, rss, facts

    def traced_run(self, facts):
        """One perfbench_traced invocation: (wall s, its JSON), or None."""
        cmd = [self.traced, self.w["scenario"]]
        cmd += ["%s=%s" % kv for kv in self.w["params"].items()]
        cmd.append("--seed=%d" % self.seed)
        out = os.path.join(self.work_dir, "traced.json")
        self.attempted += 1
        code, wall, _ = spawn(cmd, out)
        if code != 0:
            self._fail("traced", ["exit code %d" % code])
            return None
        try:
            with open(out) as f:
                traced = json.loads(f.read().strip().splitlines()[-1])
        except (ValueError, IndexError) as e:
            self._fail("traced", ["unparseable output: %s" % e])
            return None
        errors = checks.check_traced(traced, facts, self.w["scenario"])
        if errors:
            self._fail("traced", errors)
            return None
        return wall, traced


class Rounds:
    """Measured rounds: at least `minimum`, then while the next round is
    expected to end less than half a round past `seconds`."""

    def __init__(self, seconds, minimum, t_start):
        self.seconds, self.minimum, self.t_start = seconds, minimum, t_start
        self.t0 = time.perf_counter()
        self.done = 0

    def another(self):
        now = time.perf_counter()
        if self.done >= self.minimum:
            per_round = (now - self.t0) / self.done
            if now - self.t0 + per_round / 2 > self.seconds:
                return False
        if self.done > 0 and now - self.t_start > RUN_BUDGET_S:
            return False
        self.done += 1
        return True


def measure_end_to_end(r, seconds, t_start):
    warm = r.cli_run("params")  # discarded: warms the page cache and the CPU
    walls, rss, setups, facts = [], [], [], warm[2] if warm else None
    rounds = Rounds(seconds, MIN_ROUNDS[0], t_start)
    while rounds.another():
        # Round-robin the full and the cut input, so drift hits both alike.
        full = r.cli_run("params")
        if full:
            walls.append(full[0])
            rss.append(full[1])
            facts = full[2]
        for _ in range(SETUPS_PER_ROUND):
            cut = r.cli_run("setup")
            if cut:
                setups.append(cut[0])
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    if facts and walls:
        samples["events_per_sec"] = [facts["events"] / w for w in walls]
        samples["gap_p50"] = [facts["gap_p50"]]
    return samples


def measure_layers(r, seconds, t_start, per_layer):
    warm = r.cli_run("params")
    facts = warm[2] if warm else None
    untraced, traced_walls, layers = [], [], {}
    rounds = Rounds(seconds, MIN_ROUNDS[1], t_start)
    while facts and rounds.another():
        full = r.cli_run("params")
        if full:
            untraced.append(full[0])
        traced = r.traced_run(facts)
        if traced:
            traced_walls.append(traced[0])
            for key, value in traced[1].items():
                if isinstance(value, (int, float)):
                    layers.setdefault(key, []).append(value)
    # A layer the workload never runs reads 0 (e.g. sim.* on serving).
    samples = {name: layers.get(name, [0.0]) for name, _ in per_layer
               if not name.startswith("harness.")}
    if untraced and traced_walls:
        untraced_med = statistics.median(untraced)
        traced_med = statistics.median(traced_walls)
        layer_sum = sum(statistics.median(samples[name]) for name in SUM_LAYERS)
        samples["harness.untraced_wall_s"] = untraced
        samples["harness.traced_wall_s"] = traced_walls
        # Derived from medians, so layers + residual + overhead == traced
        # wall holds exactly for the reported figures.
        samples["harness.residual_s"] = [untraced_med - layer_sum]
        samples["harness.trace_overhead_s"] = [traced_med - untraced_med]
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run.py: no rlslb source tree here (run it from the repository root)")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cli, traced = build(build_dir)
    work_dir = os.path.join(build_dir, "runs", args.workload)
    os.makedirs(work_dir, exist_ok=True)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    r = Runner(args.workload, args.seed, work_dir, cli, traced)
    env = machine()
    cpu = pin()  # after the build, which should use every core
    log("%s seed=%d trace=%d pinned_cpu=%s nproc=%s loadavg=%s cpu=%s" % (
        args.workload, args.seed, args.trace, cpu, env["nproc"], env["loadavg"],
        env["cpu_model"]))
    if args.trace:
        samples = measure_layers(r, args.seconds, t_start, per_layer)
        names = per_layer
    else:
        samples = measure_end_to_end(r, args.seconds, t_start)
        names = end_to_end
    failed = len(r.failures)
    if not args.trace:
        samples["ok_frac"] = [(r.attempted - failed) / max(1, r.attempted)]

    stats = {name: dict(summarize(samples.get(name, [])), unit=unit) for name, unit in names}
    correct = failed == 0 and all(samples.get(name) for name, _ in names)
    env["loadavg_end"] = list(os.getloadavg())
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "pinned_cpu": cpu, "machine": env,
               "table_digests": r.digests, "attempted": r.attempted,
               "failures": r.failures, "metrics": stats,
               "elapsed_s": time.perf_counter() - t_start}
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(results, f, indent=1)

    for name, unit in names:
        s = stats[name]
        print("%-28s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d"
              % (name, s["median"], unit, s["q1"], s["q3"], s["n"]))
    print("table digest: %s" % r.digests)
    print(json.dumps({"correct": correct, "attempted": max(1, r.attempted), "failed": failed,
                      "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                                  for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
