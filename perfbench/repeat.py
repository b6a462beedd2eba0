#!/usr/bin/env python3
"""Repeat benchmark runs and judge their spread, or check determinism.

    python3 perfbench/repeat.py spread --workload W [--seeds 1-10] [--save F] [--baseline F]
    python3 perfbench/repeat.py determinism --workload W [--seed N]

`spread` runs `run.py` once per seed (untraced) and prints, for every
end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median, against the metric's bound in BENCHMARK.json:
the spread must stay within the bound, and below a third of it to be
steady (`setup_s` is only held to the bound).  `--save` writes the values; `--baseline`
compares this set's medians with a saved set's by the bound.

`determinism` makes traced runs with one seed twice and with the next
seed once: the work counters (units `count`, `bytes`, `sim_s`) must
repeat exactly for the same seed, and the simulated-seconds digest
must change with the seed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

DETERMINISTIC_UNITS = ("count", "bytes", "sim_s")
DIGEST = "executor.sim_seconds_sum"


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"repeat.py: run failed for seed {seed} ({done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"repeat.py: seed {seed}: {result['failed']} of "
                 f"{result['attempted']} output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread_cmd(args):
    bench = declared()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, 0, seconds))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    values = {m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]}
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    ok = True
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = stats.quartiles(v)
        share = stats.spread(v)
        steady = share < m["bound"] / 3 and m["name"] != "setup_s"
        verdict = ("steady" if steady else
                   "within bound" if share <= m["bound"] else "TOO WIDE")
        ok &= verdict != "TOO WIDE"
        line = (f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {share:6.3f} bound {m['bound']:.3f}  {verdict}")
        if base is not None:
            base_med = stats.median(base[m["name"]])
            worse = stats.worsening(base_med, med, m["better"])
            held = stats.within_bound(base_med, med, m["bound"], m["better"])
            ok &= held
            line += f"  vs baseline {worse:+.3f} {'ok' if held else 'WORSE'}"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


def determinism_cmd(args):
    bench = declared()
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] in DETERMINISTIC_UNITS]
    seconds = args.seconds or 1
    first = run_once(args.workload, args.seed, 1, seconds)
    again = run_once(args.workload, args.seed, 1, seconds)
    other = run_once(args.workload, args.seed + 1, 1, seconds)
    ok = True
    for name in counters:
        same = first[name] == again[name]
        ok &= same
        print(f"  {name:<32} {first[name]!r:<22} {again[name]!r:<22} {other[name]!r:<22}"
              f"{'' if same else '  DIFFERS FOR THE SAME SEED'}")
    moved = first[DIGEST] != other[DIGEST]
    ok &= moved
    print(f"\n{args.workload}: same seed repeats: "
          f"{all(first[n] == again[n] for n in counters)}; "
          f"{DIGEST} changes with the seed: {moved}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=int)
    sp.add_argument("--save")
    sp.add_argument("--baseline")
    dp = sub.add_parser("determinism")
    dp.add_argument("--workload", required=True)
    dp.add_argument("--seed", type=int, default=1)
    dp.add_argument("--seconds", type=int)
    args = ap.parse_args()
    sys.exit(spread_cmd(args) if args.cmd == "spread" else determinism_cmd(args))


if __name__ == "__main__":
    main()
