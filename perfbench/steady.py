"""Steadiness check: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py --seeds 10 [--workload NAME ...] [--traced] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, each in a fresh
process, with the run length from BENCHMARK.json.  For every end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the metric's bound.  A spread
above a third of its bound is marked ``WIDE``: such a metric cannot
resolve a regression of its bound's size.  This is what set the bounds.

``--traced`` also makes one traced run per seed and prints the tracing
overhead: the traced run's own end-to-end figures against the untraced
medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if not result["correct"]:
        print(f"  {workload} seed {seed}: incorrect\n{done.stderr}", flush=True)
    for line in lines[:-1]:
        if line.startswith('{"traced_end_to_end"'):
            result["traced_end_to_end"] = json.loads(line)["traced_end_to_end"]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None, help="also write every run's result as JSON here")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {"run_seconds": spec["run_seconds"], "runs": {}}
    for workload in workloads:
        runs = [invoke(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        record["runs"][workload] = runs
        failed = [(r["failed"], r["attempted"]) for r in runs]
        print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={sorted(set(f'{f}/{a}' for f, a in failed))[:3]}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':26s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        medians = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            medians[name] = median
            flag = "" if name == "setup_s" or spread < metric["bound"] / 3 else "  WIDE"
            print(f"  {name:26s} {metric['unit']:6s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.2%} {metric['bound']:6.2f}{flag}")
        if args.traced:
            traced = [invoke(workload, seed, spec["run_seconds"], 1) for seed in seeds]
            record["runs"][workload + ":traced"] = traced
            print("  tracing overhead (traced median vs untraced median):")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                t = statistics.median(r["traced_end_to_end"][name] for r in traced)
                base = medians[name]
                print(f"    {name:26s} {t:12.4f} vs {base:12.4f}  ({(t - base) / base:+.1%})")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
