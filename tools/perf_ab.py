#!/usr/bin/env python3
"""Interleaved A/B of two perfbench_sim binaries on one workload and seed.

    python3 tools/perf_ab.py PARENT_BIN CHANGE_BIN --workload flood-1k \\
        --seed 7 --pairs 10

Runs --pairs pairs of fresh processes, one per binary, alternating which
binary goes first. Each process builds, runs and tears down one world, as
perfbench/run.py's do. `e2e_s` is computed as run.py computes it: the
process's wall time minus its audit_s and probe_s.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change/parent ratio of the medians, the pairs the change
won, and whether the median gain exceeds the distance between the parent's
quartiles. Exits 1 if any two runs print different digests (the simulated
output changed), 2 if a process fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROCESS_TIMEOUT_S = 600


def percentile(values, q):
    """q-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


METRICS = {
    "setup_s": lambda r: r["phases"]["setup_s"],
    "run_s": lambda r: r["phases"]["run_s"],
    "teardown_s": lambda r: r["phases"]["teardown_s"],
    "e2e_s": lambda r: r["e2e_s"],
    "slice_ms_p50": lambda r: percentile(r["slice_ms"], 50),
    "slice_ms_p90": lambda r: percentile(r["slice_ms"], 90),
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "delivered_pct": lambda r: 100.0 - r["loss_pct"],
}


def run_once(binary, workload, seed):
    """One process; its JSON record with e2e_s added."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"perf_ab: {' '.join(cmd)} exited {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["e2e_s"] = wall - rec["phases"]["audit_s"] - rec["phases"]["probe_s"]
    return rec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's perfbench_sim")
    ap.add_argument("change", type=Path, help="the change's perfbench_sim")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]
               if m["name"] in METRICS]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed))
        print(f"perf_ab: pair {i + 1}/{args.pairs}: e2e_s parent "
              f"{runs['parent'][-1]['e2e_s']:.3f} change "
              f"{runs['change'][-1]['e2e_s']:.3f}", file=sys.stderr)

    print(f"# {args.workload} seed {args.seed}, {args.pairs} interleaved "
          "pairs; median [q1, q3]")
    print("| metric | parent | change | change/parent | pairs won | "
          "gain > parent IQR |")
    print("|---|---|---|---|---|---|")
    for name, better in metrics:
        get = METRICS[name]
        p = [get(r) for r in runs["parent"]]
        c = [get(r) for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        sign = 1 if better == "lower" else -1
        won = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        ratio = f"{cm / pm:.3f}" if pm else "-"
        gain = "yes" if sign * (pm - cm) > p3 - p1 else "no"
        print(f"| {name} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}] | {ratio} | "
              f"{won}/{args.pairs} | {gain} |")

    digests = {r["digest"] for side in runs.values() for r in side}
    if len(digests) > 1:
        print(f"# digests differ: {', '.join(sorted(digests))}")
        return 1
    print(f"# digest {digests.pop()} (all {2 * args.pairs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
