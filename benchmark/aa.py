#!/usr/bin/env python3
"""A/A check: run the benchmark on one build as the driver does, and hold
every end-to-end metric against the bound BENCHMARK.json fixes for it.

    python3 benchmark/aa.py [--sets 2] [--runs 10] [--workload NAME ...]

Run it from the repository root. Each set is `--runs` end-to-end runs per
workload, each with another seed. For every workload x metric it prints

  spread  distance between the first and third quartile of a set's values
          (statistics.quantiles(values, n=4)), as a share of their median;
          must stay within the bound (setup_s is exempt), and should stay
          within a third of it;
  drift   how much worse the second set's median is than the first's, as a
          share of the first; must stay within the bound.

Exits non-zero if a run fails, reports an incorrect result, or a spread or
a drift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed result\n{proc.stderr}")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    bad = []
    slowest = 0.0

    print(f"{'workload':<14}{'metric':<20}{'bound':>7}" + "".join(
        f"{f'median {s + 1}':>14}{f'spread {s + 1}':>10}" for s in range(args.sets)) + f"{'drift':>9}")
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                result, wall = run_once(spec, workload, 1000 * (s + 1) + r, 0)
                slowest = max(slowest, wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            sets.append(values)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = f"{workload:<14}{name:<20}{bound:>7.2f}"
            medians = []
            for values in sets:
                med, spr = statistics.median(values[name]), spread(values[name])
                medians.append(med)
                row += f"{med:>14.4f}{100 * spr:>9.2f}%"
                if len(set(values[name])) == 1:
                    bad.append(f"{workload} {name}: reads {med} on every run")
                if name != "setup_s" and spr > bound:
                    bad.append(f"{workload} {name}: spread {spr:.3f} > bound {bound}")
            drift = 0.0
            if len(medians) > 1:
                worse = medians[0] - medians[-1] if m["better"] == "higher" else medians[-1] - medians[0]
                drift = worse / medians[0]
                if drift > bound:
                    bad.append(f"{workload} {name}: second median worse by {drift:.3f} > bound {bound}")
            print(row + f"{100 * drift:>8.2f}%", flush=True)
        # One traced run per workload: it must pass its gate and report.
        _, wall = run_once(spec, workload, 1, 1)
        slowest = max(slowest, wall)
    print(f"slowest run: {slowest:.1f} s")
    for line in bad:
        print("FAIL", line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
