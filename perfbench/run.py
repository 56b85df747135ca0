#!/usr/bin/env python3
"""Time-to-verdict benchmark of the A-QED stack.

    python3 perfbench/run.py --workload check|campaign|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the library and the two benchmark binaries from source into
.bench_build/perfbench (CMake, perfbench/CMakeLists.txt), runs the workload
in its own process for --seconds seconds, checks every verdict against the
known answers in perfbench/known_answers.json, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured by the
untraced binary. --trace 1 runs the untraced binary and then the traced one
(layer spans around the library's public functions, perfbench/src/
interpose.cpp) with the same seed, checks that both did exactly the same
work, and reports the per-layer metrics.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("check", "campaign", "serve")
DEFAULT_SEED = 1
# Wall-clock budget for the benchmark processes of one run, after the build.
RUN_BUDGET_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both binaries; exits 1 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "perfbench_traced", "-j", "4"])
        for step in steps:
            done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log(f"build failed: {' '.join(step)}")
                if step[1] == "-S":
                    shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(1)


def run_binary(name, workload, seed, seconds, deadline):
    """Runs one benchmark binary in a scratch directory; returns its JSON."""
    work = BUILD / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = subprocess.run(
            [str(BUILD / name), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=work, env=dict(os.environ, TMPDIR=str(work)),
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{name} ran past the {RUN_BUDGET_S} s budget")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{name} exited with {done.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def pooled(run, key):
    return [x for r in run["rounds"] for x in r["samples"].get(key, [])]


def round_median(run, field):
    return median([r[field] for r in run["rounds"]])


def detail_median(run, key):
    return median([r["detail"][key] for r in run["rounds"]
                   if key in r["detail"]])


def check_run(run, known, problems):
    """Known answers, errors and round-to-round repetition of one run."""
    expected = known["answers"][run["workload"]]
    for index, r in enumerate(run["rounds"]):
        for error in r["errors"]:
            problems.append(f"round {index}: {error}")
        for key, want in expected.items():
            got = r["answers"].get(key)
            if got != want:
                problems.append(f"round {index}: {key} = {got}, "
                                f"known answer {want}")
        if r["effort"] != run["rounds"][0]["effort"]:
            problems.append(f"round {index}: effort differs from round 0 "
                            f"(nondeterministic work)")


def flag_drift(label, got, recorded):
    """Reports counts that differ from the ones recorded for this seed."""
    if recorded is None:
        return
    changed = {k: (recorded.get(k), v) for k, v in got.items()
               if recorded.get(k) != v}
    for key, (old, new) in sorted(changed.items()):
        print(f"behaviour change: {label} {key}: recorded {old}, now {new}")


# Per-layer counts that must repeat exactly (integers in every round).
EXACT_LAYER_COUNTS = (
    "sat.solves", "sat.conflicts", "sat.propagations", "sat.decisions",
    "bmc.frames", "bmc.replays", "aqed.instrument_calls", "fault.mutants",
    "sched.jobs", "bitblast.vars", "bitblast.clauses", "sat.cube_fanouts",
    "service.cache_lookups", "service.cache_saves", "service.client_calls",
)


def end_to_end(run):
    setup = [x for r in run["rounds"] for x in r["setup_s"]]
    return {
        "setup_s": (median(setup), "s"),
        "verdict_s": (round_median(run, "verdict_s"), "s"),
        "cpu_s": (round_median(run, "cpu_s"), "s"),
        # The first round's: later rounds only add allocator growth from
        # repeating the workload in one process.
        "peak_rss_mb": (run["rounds"][0]["peak_rss_mb"], "MB"),
        "verdicts_per_s": (round_median(run, "verdicts_per_s"), "1/s"),
    }


def per_layer(plain, traced):
    """Layer metrics from the traced run, workload timings from the plain."""
    layers = [r["layers"] for r in traced["rounds"]]

    def layer(key):
        return median([entry[key] for entry in layers])

    def ratio(num, den, scale=1.0):
        return median([entry[num] / entry[den] * scale
                       for entry in layers if entry[den] > 0])

    effort = plain["rounds"][0]["effort"]
    workload = plain["workload"]
    mutant_hits = effort.get("serve.mutant_hits", 0)
    mutant_lookups = mutant_hits + effort.get("serve.mutant_misses", 0)
    metrics = {
        "sat.solve_s": (layer("sat.solve_s"), "s"),
        "sat.props_per_s": (ratio("sat.propagations", "sat.solve_s"), "1/s"),
        "sat.cube_split_s": (layer("sat.cube_split_s"), "s"),
        "sat.clone_s": (layer("sat.clone_s"), "s"),
        "sat.cube_imbalance": (layer("sat.cube_imbalance"), "ratio"),
        "aqed.instrument_s": (layer("aqed.instrument_s"), "s"),
        "bmc.unroll_s": (layer("bmc.unroll_s"), "s"),
        "accel.build_s": (layer("accel.build_s"), "s"),
        "fault.mutate_s": (layer("fault.mutate_s"), "s"),
        "bmc.replay_s": (layer("bmc.replay_s"), "s"),
        "harness.baseline_s": (layer("harness.baseline_s"), "s"),
        "sched.parallel_eff": (ratio("sched.serial_s", "sched.capacity_s"),
                               "ratio"),
        "decomp.analyze_s": (layer("decomp.analyze_s"), "s"),
        "decomp.subs": (effort.get("decomp.subs", 0), "count"),
        "decomp.solves": (effort.get("decomp.solves", 0), "count"),
        "ir.digest_s": (layer("ir.digest_s"), "s"),
        "service.cache_lookup_us": (
            ratio("service.cache_lookup_s", "service.cache_lookups", 1e6),
            "us"),
        "service.cache_save_ms": (
            ratio("service.cache_save_s", "service.cache_saves", 1e3), "ms"),
        "service.hit_ratio": (
            mutant_hits / mutant_lookups if mutant_lookups else 0.0, "ratio"),
        "service.cache_entries": (effort.get("serve.cache_entries", 0),
                                  "count"),
        "service.rejected": (effort.get("serve.rejected", 0), "count"),
        "service.hit_requests": (effort.get("serve.hit_requests", 0),
                                 "count"),
        "service.miss_requests": (effort.get("serve.miss_requests", 0),
                                  "count"),
        "service.overhead_ms_p50": (median(pooled(plain, "overhead_ms")),
                                    "ms"),
        "hunt_s": (detail_median(plain, "hunt_s"), "s"),
        "cube_s": (detail_median(plain, "cube_s"), "s"),
        "decomp_s": (detail_median(plain, "decomp_s"), "s"),
        "mutants_per_s": (round_median(plain, "verdicts_per_s")
                          if workload == "campaign" else 0.0, "1/s"),
        "req_per_s": (round_median(plain, "verdicts_per_s")
                      if workload == "serve" else 0.0, "1/s"),
        "hit_ms_p50": (median(pooled(plain, "hit_ms")), "ms"),
        "hit_ms_p99": (percentile(pooled(plain, "hit_ms"), 99), "ms"),
        "miss_ms_p50": (median(pooled(plain, "miss_ms")), "ms"),
        "trace.overhead_cpu_s": (
            round_median(traced, "cpu_s") - round_median(plain, "cpu_s"), "s"),
    }
    for key in EXACT_LAYER_COUNTS:
        metrics[key] = (layers[0][key], "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    known = json.loads((HERE / "known_answers.json").read_text())
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    problems = []
    plain = run_binary("perfbench", args.workload, args.seed, args.seconds,
                       deadline)
    check_run(plain, known, problems)
    seed_key = str(args.seed)
    effort = plain["rounds"][0]["effort"]
    flag_drift("effort", effort,
               known["effort"][args.workload].get(seed_key))
    attempted = sum(r["attempted"] for r in plain["rounds"])
    failed = sum(r["failed"] for r in plain["rounds"])

    if args.trace:
        traced = run_binary("perfbench_traced", args.workload, args.seed,
                            args.seconds, deadline)
        check_run(traced, known, problems)
        if traced["rounds"][0]["effort"] != effort:
            problems.append("traced run did different work than the "
                            "untraced run (effort counts differ)")
        counts = {k: traced["rounds"][0]["layers"][k]
                  for k in EXACT_LAYER_COUNTS}
        for index, r in enumerate(traced["rounds"]):
            if any(r["layers"][k] != counts[k] for k in EXACT_LAYER_COUNTS):
                problems.append(f"traced round {index}: layer counts differ "
                                f"from the other rounds")
        flag_drift("layer", counts,
                   known["layers"][args.workload].get(seed_key))
        attempted += sum(r["attempted"] for r in traced["rounds"])
        failed += sum(r["failed"] for r in traced["rounds"])
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)

    hits = len(pooled(plain, "hit_ms"))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain['rounds'])} round(s), {attempted} attempted, "
          f"{failed} failed"
          + (f", {hits} hit samples" if hits else ""))
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
