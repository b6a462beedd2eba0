#!/usr/bin/env python3
"""Run one workload of the robustmap benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (a Cargo package of its own in this
directory) from source, runs it with the environment knobs that change
the program under measurement removed, checks its outputs, and prints a
run manifest first and one JSON result object last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the per-layer metrics.  Traced runs
write their spans to `.perfbench/` at the repository root when they end.
Exits non-zero without a result when the program cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("select_sweep", "serve_mixed", "churn_mixed")
# Knobs that change the program under measurement, or point it at state
# shared with other runs.  The workload cache is redirected instead.
CLEARED_ENV = (
    "ROBUSTMAP_BATCH_ROWS",
    "ROBUSTMAP_QUANTUM",
    "ROBUSTMAP_TRACE",
    "ROBUSTMAP_TRACE_DETAIL",
    "ROBUSTMAP_WORKLOAD_CACHE",
    "ROBUSTMAP_WORKLOAD_CACHE_BUDGET",
    "ROBUSTMAP_LOG",
)
# The program must finish well inside the 180 s a run may take.
PROGRAM_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark program; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"building the benchmark failed ({done.returncode})")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    exe = target / "release" / "robustmap-perfbench"
    if not exe.is_file():
        fail(f"no benchmark program at {exe}")
    return exe


def revision():
    """The source revision, when the checkout is this repository's git tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unavailable"
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() if rev.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def run_program(exe, args):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cache = STATE / "workload-cache"
    cache.mkdir(parents=True, exist_ok=True)
    env["ROBUSTMAP_WORKLOAD_CACHE"] = str(cache)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(STATE / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark program ran past {PROGRAM_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"the benchmark program failed ({done.returncode})")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark program printed nothing")
    return json.loads(lines[-1])


def end_to_end(raw):
    rounds = raw["rounds_s"]
    return {
        "setup_s": (stats.median(raw["setup_s"]), len(raw["setup_s"])),
        "peak_rss_mib": (raw["peak_rss_mib"], 1),
        # A mean: build peaks fall on a few levels some 18 MiB apart,
        # depending on how the parallel index builds overlap, and the
        # median of a few builds jumps between them.
        "setup_peak_rss_mib": (statistics.fmean(raw["setup_peak_rss_mib"]),
                               len(raw["setup_peak_rss_mib"])),
        "ops_per_s": (raw["ops"] / raw["ops_s"], len(rounds)),
        "round_ms_p50": (1e3 * stats.median(rounds), len(rounds)),
    }


def per_layer(raw):
    out = {name: (v, 1) for name, v in raw["values"].items()}
    for name, samples in raw["samples"].items():
        out[name] = (stats.median(samples), len(samples))
    for name, samples in raw["tails"].items():
        pct, value = stats.tail(samples)
        out[name] = (value, len(samples))
        print(f"# {name}: p{pct:g} of {len(samples)} samples")
    checks = raw["checks"]
    out["error_rate"] = (checks["failed"] / checks["attempted"], checks["attempted"])
    traced, untraced = raw["rounds_s"], raw["untraced_rounds_s"]
    out["trace_overhead_ratio"] = (
        stats.median(traced) / stats.median(untraced), min(len(traced), len(untraced)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    exe = build()
    out = run_program(exe, args)
    raw = out["raw"]
    manifest = dict(out["manifest"], host_cores=os.cpu_count(), revision=revision(),
                    cleared_env=[k for k in CLEARED_ENV if k in os.environ])
    print("# manifest " + json.dumps({"workload": out["workload"], **manifest}))

    measured = per_layer(raw) if args.trace else end_to_end(raw)
    names = {m["name"] for m in wanted}
    if set(measured) != names:
        fail(f"metrics measured {sorted(set(measured) ^ names)} disagree with BENCHMARK.json")
    metrics = {}
    for m in wanted:
        value, n = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value:.6g} {m['unit']} (n={n})")
    checks = raw["checks"]
    for f in checks["failures"]:
        print(f"# check failed: {f}")
    print(json.dumps({
        "correct": checks["failed"] == 0 and checks["attempted"] > 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
