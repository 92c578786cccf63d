#!/usr/bin/env python3
"""The end-to-end benchmark: builds the simulator from source, runs one
workload for the measured time, checks every rep, and prints the metrics.

    python3 simbench/run.py --workload flap-4k|churn-1k|masc-alloc \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/simbench
(configured on first use, incremental after); build output goes to stderr.
Each rep is one whole run of the workload in a fresh process (the
simbench binary), as a user runs it. Reps repeat until the next would
overrun --seconds. A host probe runs before the first rep and after every
rep, and each rep's CPU seconds are scaled by the probes either side of it
to seconds of a host at its reference speed (README.md, "Timing"). The
timings are medians over the reps. A traced run (--trace 1) interleaves
untraced and traced reps, reports the per-layer metrics and writes each
traced rep's spans to .bench_build/spans-<workload>-seed<N>-rep<K>.jsonl.

Stdout ends with one line per check and then the result, one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero,
without a result, if the build or a rep fails to run.

Self-test option: --inject-bad-digest makes every rep expect a wrong
value, so the result must report failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "simbench"
WORKLOADS = ("flap-4k", "churn-1k", "masc-alloc")
BUILD_JOBS = "4"
REP_TIMEOUT_S = 120
# The host probe's CPU seconds on a quiet 4-core x86 host: the reference
# speed that host-time metrics are scaled to.
PROBE_REF_S = 0.135


def build():
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
                  "--target", "simbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


class RepFailed(Exception):
    pass


def run_simbench(argv):
    """Runs the simbench binary with these arguments; returns its report."""
    cmd = [str(BUILD_DIR / "simbench")] + argv
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"rep exceeded {REP_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise RepFailed(f"rep exited {done.returncode}")
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError as e:
        raise RepFailed(f"unreadable rep report: {done.stdout!r}") from e


def run_probe():
    return run_simbench(["--host-probe"])["probe_cpu_s"]


def run_rep(args, kind, spans_path=None):
    """Runs one rep in a fresh process. `kind` is "plain", "no-telemetry"
    or "traced"; returns the rep's JSON report with the kind added."""
    cmd = ["--workload", args.workload, "--seed", str(args.seed)]
    if kind == "no-telemetry":
        cmd.append("--no-telemetry")
    if kind == "traced":
        cmd += ["--trace", "--spans-out", str(spans_path)]
    if args.inject_bad_digest:
        cmd.append("--inject-bad-digest")
    rep = run_simbench(cmd)
    rep["kind"] = kind
    return rep


def cycle_kinds(args, i):
    """The reps of cycle `i`. churn-1k runs one rep with telemetry off, so
    every run checks the on/off digests. A traced run measures
    obs.telemetry_s from a pair in every cycle, alternating which side goes
    first so a slow spell of the host does not always land on the same
    side, and adds one traced rep per cycle."""
    kinds = ["plain"]
    if args.workload == "churn-1k" and (i == 0 or args.trace == 1):
        kinds = ["plain", "no-telemetry"] if i % 2 == 0 else \
            ["no-telemetry", "plain"]
    if args.trace == 1:
        kinds.append("traced")
    return kinds


def run_reps(args):
    """Runs rep cycles until the next would overrun --seconds (assuming
    each rep and its probe take as long as the slowest so far), at least
    one. Sets each rep's host_factor: the mean of the probes before and
    after it over PROBE_REF_S."""
    reps = []
    start = time.monotonic()
    probe = run_probe()
    slowest = 0.0
    i = 0
    while True:
        kinds = cycle_kinds(args, i)
        if i > 0 and (time.monotonic() - start + slowest * len(kinds)
                      > args.seconds):
            break
        for kind in kinds:
            spans = ROOT / ".bench_build" / \
                f"spans-{args.workload}-seed{args.seed}-rep{len(reps)}.jsonl"
            if kind == "traced" and spans.exists():
                spans.unlink()
            began = time.monotonic()
            rep = run_rep(args, kind, spans)
            after = run_probe()
            rep["host_factor"] = (probe + after) / 2 / PROBE_REF_S
            probe = after
            reps.append(rep)
            slowest = max(slowest, time.monotonic() - began)
        i += 1
    return reps


class Checks:
    """Tallies check outcomes by name, for one line per check."""

    def __init__(self):
        self.entries = {}

    def record(self, name, ok, detail=""):
        entry = self.entries.setdefault(name, [0, 0, ""])
        entry[0 if ok else 1] += 1
        if not ok and not entry[2]:
            entry[2] = detail
        return ok

    def lines(self):
        for name, (passed, failed, detail) in self.entries.items():
            status = "ok" if failed == 0 else "FAILED"
            line = f"check {name}: {status} ({passed} passed, {failed} failed)"
            yield line + (f" first failure: {detail}" if detail else "")


def check_reps(args, reps, checks):
    """Applies every check to every rep; returns (attempted, failed). A rep
    that fails a check counts all its operations as failed."""
    first = reps[0]
    attempted = failed = 0
    for rep in reps:
        ok = True
        for c in rep["checks"]:
            ok &= checks.record(c["name"], c["ok"], c["detail"])
        # Internal equalities, on any seed: every rep reaches the first
        # rep's state by the same work, whether telemetry was on or off
        # and whether it was traced.
        want = dict(first["digests"])
        if args.inject_bad_digest and args.seed != 1:
            want = {k: v + "0" for k, v in want.items()}
        pair = (rep["kind"] == "no-telemetry") != \
            (first["kind"] == "no-telemetry")
        name = "digests_telemetry_on_off" if pair else "digests_across_reps"
        ok &= checks.record(name, rep["digests"] == want,
                            f"{rep['digests']} != {want}")
        ok &= checks.record("simulated_metrics_across_reps",
                            rep["sim"] == first["sim"],
                            f"{rep['sim']} != {first['sim']}")
        attempted += rep["attempted"]
        if not ok:
            failed += rep["attempted"]
    return attempted, failed


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def scaled_run_s(rep):
    """The rep's run in seconds of the reference host."""
    return rep["run_cpu_s"] / rep["host_factor"]


def end_to_end(reps):
    plain = [r for r in reps if r["kind"] == "plain"]
    run_s = statistics.median(scaled_run_s(r) for r in plain)
    setups = [s / r["host_factor"] for r in reps if r["kind"] != "traced"
              for s in r["setup_cpu_s"]]
    values = dict(plain[0]["sim"])
    values.update({
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "work_per_s": plain[0]["work"] / run_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    })
    return values


def per_layer(reps, specs):
    traced = [r for r in reps if r["kind"] == "traced"]
    values = {}
    for spec in specs:
        name = spec["name"]
        # A layer the workload does not exercise reports zero.
        values[name] = statistics.median(r["layers"].get(name, 0.0)
                                         for r in traced)
    values["bench.host_factor"] = \
        statistics.median(r["host_factor"] for r in reps)
    plain = statistics.median(scaled_run_s(r) for r in reps
                              if r["kind"] == "plain")
    values["trace.overhead"] = \
        statistics.median(scaled_run_s(r) for r in traced) / plain
    off = [scaled_run_s(r) for r in reps if r["kind"] == "no-telemetry"]
    if off:
        values["obs.telemetry_s"] = plain - statistics.median(off)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-bad-digest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    try:
        reps = run_reps(args)
    except RepFailed as e:
        print(f"run.py: {args.workload} seed {args.seed}: {e}",
              file=sys.stderr)
        return 1

    checks = Checks()
    attempted, failed = check_reps(args, reps, checks)
    e2e_specs, layer_specs = metric_specs()
    if args.trace == 1:
        specs, values = layer_specs, per_layer(reps, layer_specs)
    else:
        specs, values = e2e_specs, end_to_end(reps)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    correct = failed == 0 and all(e[1] == 0 for e in checks.entries.values())
    for line in checks.lines():
        print(line)
    factors = [r["host_factor"] for r in reps]
    print(f"host probe: {len(reps) + 1} probes, host factor median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f} to "
          f"{max(factors):.3f} (1 = reference speed, higher = slower)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
