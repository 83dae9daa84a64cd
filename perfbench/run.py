#!/usr/bin/env python3
"""End-to-end simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload flood-1k --seed 7 --seconds 35 --trace 0

Run from the repository root. The first call configures and builds
perfbench_sim (Release) under .bench_build/perfbench. Each measurement is
one fresh perfbench_sim process that builds, runs, checks and tears down
one seeded world. Processes are started back to back while the next one
is expected to end within --seconds, and at least MIN_RUNS times. Timings
are reported as medians over those processes.

--trace 0 prints every end-to-end metric; --trace 1 alternates untraced and
traced processes and prints every per-layer metric plus the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. `attempted` counts simulated world
runs and `failed` those that broke the correctness gate: a process error,
an Auditor violation, loss above the workload's ceiling, or a digest that
differs between repeats of one seed (traced and untraced alike). A failed
gate exits 1; a missing simulator source tree exits 2 before any run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("flood-1k", "roam-tunnel", "churn-par")
MIN_RUNS = 4          # world runs per --trace 0 call, whatever --seconds says
MIN_TRACED_PAIRS = 1  # (untraced, traced) pairs per --trace 1 call
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources at src/; run from a full checkout")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_sim",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "perfbench_sim"


def run_world(binary, workload, seed, smoke, spans=None):
    """One fresh process: one world from setup to teardown.

    Returns its JSON record with `e2e_s` added: process start to written
    report, minus the audit and the layer probes, which only the benchmark
    adds. Returns None (and logs why) if the process failed.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        log(f"perfbench: {' '.join(cmd)} exited {proc.returncode}\n"
            f"{proc.stderr}")
        return None
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    ph = rec["phases"]
    rec["e2e_s"] = wall - ph["audit_s"] - ph["probe_s"]
    return rec


def gate(rec):
    """Per-run correctness problems (an empty list passes)."""
    problems = []
    b = rec["build"]
    if not b["optimized"] or b["sanitize"]:
        problems.append(f"timed build is not a plain optimized build: {b}")
    for v in rec["audit_violations"]:
        problems.append(f"audit violation: {v}")
    if rec["loss_pct"] > rec["loss_ceiling_pct"]:
        problems.append(f"loss {rec['loss_pct']:.3f} % above ceiling "
                        f"{rec['loss_ceiling_pct']} %")
    return problems


def check_spans(path, rec):
    """The traced JSON parses, and its slice counter deltas add up to the
    run's own end-of-run counts."""
    doc = json.loads(Path(path).read_text())
    spans = doc["spans"]
    problems = []
    for s in spans:
        if s["end_s"] < s["start_s"]:
            problems.append(f"span {s['name']} ends before it starts")
    slices = [s for s in spans if s["name"] == "sim.slice"]
    events = sum(s.get("counter_deltas", {}).get("sim/events", 0)
                 for s in slices)
    if events != rec["layers"]["sim.events"]:
        problems.append(f"slice spans count {events} events, run "
                        f"{rec['layers']['sim.events']}")
    fwd = sum(s.get("counter_deltas", {}).get("ipv6/fwd", 0) for s in slices)
    if fwd != rec["layers"]["ipv6.fwd"]:
        problems.append(f"slice spans count {fwd} ipv6/fwd, run "
                        f"{rec['layers']['ipv6.fwd']}")
    return len(spans), problems


def percentile(values, q):
    """q-th percentile (1..99), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def run_e2e(rec):
    """One process's end-to-end values."""
    ph = rec["phases"]
    return {
        "setup_s": ph["setup_s"],
        "run_s": ph["run_s"],
        "teardown_s": ph["teardown_s"],
        "e2e_s": rec["e2e_s"],
        "slice_ms_p50": percentile(rec["slice_ms"], 50),
        "slice_ms_p90": percentile(rec["slice_ms"], 90),
        "peak_rss_mb": rec["peak_rss_mb"],
        "delivered_pct": 100.0 - rec["loss_pct"],
    }


def end_to_end(recs):
    """Each metric's upper quartile over the processes of the call.

    The host this was tuned on alternates between its usual contended state
    and fast spells of a few seconds; a call's median flips to the fast
    state whenever those cover half of it, its upper quartile only when
    they cover three quarters (perfbench/README.md, Steadiness).
    """
    runs = [run_e2e(r) for r in recs]
    return {k: percentile([r[k] for r in runs], 75) for k in runs[0]}, runs


def per_layer(untraced, traced):
    """Counts are identical across runs (the digest gate); timings are
    medians over the traced runs."""
    keys = traced[0]["layers"].keys()
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in keys}
    values["trace.overhead_s"] = (
        statistics.median(r["e2e_s"] for r in traced) -
        statistics.median(r["e2e_s"] for r in untraced))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny world and horizon (the benchmark's own tests)")
    args = ap.parse_args()

    start = time.perf_counter()
    binary = build()
    e2e_specs, layer_specs = load_metric_specs()
    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)

    untraced, traced, problems = [], [], []
    attempted = failed = 0
    n_spans = 0
    t0 = time.perf_counter()
    while True:
        step_t0 = time.perf_counter()
        plan = [None] if args.trace == 0 else [None, spans_dir / (
            f"{args.workload}-{args.seed}-{len(traced)}.json")]
        for spans in plan:
            attempted += 1
            rec = run_world(binary, args.workload, args.seed, args.smoke,
                            spans)
            run_problems = ["process failed"] if rec is None else gate(rec)
            if rec is not None and spans is not None:
                n, span_problems = check_spans(spans, rec)
                n_spans += n
                run_problems += span_problems
            if run_problems:
                failed += 1
                problems += run_problems
            if rec is not None:
                (traced if spans is not None else untraced).append(rec)
        if problems:
            break
        # Stop once the minimum is met and another step would overrun
        # --seconds, so a call lasts about --seconds whatever the workload.
        now = time.perf_counter()
        done = len(traced) if args.trace else len(untraced)
        needed = MIN_TRACED_PAIRS if args.trace else MIN_RUNS
        if done >= needed and now + (now - step_t0) - t0 > args.seconds:
            break

    recs = untraced + traced
    digests = sorted({r["digest"] for r in recs})
    if len(digests) > 1:
        failed = min(attempted, failed + 1)
        problems.append("simulated output differs between runs of one seed "
                        f"(digests {', '.join(digests)})")

    if recs:
        r0 = recs[0]
        b = r0["build"]
        print(f"# workload {args.workload}  seed {args.seed}  "
              f"routers {r0['routers']}  horizon {r0['horizon_s']} s  "
              f"runs {len(untraced)} untraced + {len(traced)} traced")
        print(f"# host nproc {b['nproc']}  compiler {b['compiler']}  "
              f"build {b['build_type']}  sanitize '{b['sanitize']}'  "
              f"shards {r0['threads_requested']} requested / "
              f"{r0['shards_granted']} granted")
        print(f"# digest {r0['digest']}  loss_pct {r0['loss_pct']:.4f} % "
              f"(ceiling {r0['loss_ceiling_pct']} %) of {r0['expected']} "
              f"expected deliveries ({r0['sent']} sent)  "
              f"audit violations {len(r0['audit_violations'])}")

    metrics = {}
    if recs and untraced and (args.trace == 0 or traced):
        if args.trace == 0:
            values, runs = end_to_end(untraced)
            specs = e2e_specs
            for name, unit in specs:
                xs = [r[name] for r in runs]
                print(f"{name:>16} {values[name]:.6g} {unit}  (p75 of "
                      f"{len(xs)} runs, spread {spread(xs):.3f})")
        else:
            values = per_layer(untraced, traced)
            specs = layer_specs
            for name, unit in specs:
                print(f"{name:>28} {values[name]:.6g} {unit}")
            print(f"# traced JSON: {len(traced)} files, {n_spans} spans, "
                  f"under {spans_dir}")
        missing = [n for n, _ in specs if n not in values]
        if missing:
            problems.append(f"metrics not produced: {missing}")
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in specs if n in values}

    for p in problems:
        log(f"perfbench: FAIL {p}")
    correct = not problems
    print(f"# {'correct' if correct else 'INCORRECT'}; "
          f"{time.perf_counter() - start:.1f} s in this call")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
