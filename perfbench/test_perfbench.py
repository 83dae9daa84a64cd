#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size.

    python3 perfbench/test_perfbench.py

Run from the repository root (builds perfbench_sim on first use). Checks:
- every workload, untraced and traced, prints every metric BENCHMARK.json
  names, with its unit, passes the correctness gate, and leaves traced
  JSON that parses;
- slicing run_until does not change the simulated output: 120 slices and a
  single run_until(horizon) give the same digest, serial and at 2 shards
  (churn-par's count) and 4;
- without the simulator sources the benchmark exits non-zero and prints no
  result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as perfbench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc


def digest(binary, workload, *extra):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", "3", "--smoke",
         *extra], capture_output=True, text=True, cwd=ROOT, timeout=300,
        check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["digest"], rec["shards_granted"]


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench.build()

    def check_report(self, workload, trace, section):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in SPEC[section]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in SPEC[section]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # ...and the human-readable line names it with its unit.
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and
                    line.split()[2] == m["unit"] for line in lines),
                f"{m['name']} not printed with unit {m['unit']}")
        return proc.stdout

    def test_end_to_end_metrics_every_workload(self):
        for w in perfbench.WORKLOADS:
            with self.subTest(workload=w):
                out = self.check_report(w, 0, "end_to_end")
                self.assertIn("# digest ", out)
                self.assertIn("# host nproc ", out)

    def test_per_layer_metrics_and_traced_json_every_workload(self):
        for w in perfbench.WORKLOADS:
            with self.subTest(workload=w):
                self.check_report(w, 1, "per_layer")
                doc = json.loads(
                    (perfbench.build_dir() / "spans" / f"{w}-5-0.json")
                    .read_text())
                names = {s["name"] for s in doc["spans"]}
                for n in ("core.finalize", "sim.slice", "fault.audit",
                          "ipv6.recompute", "ipv6.rib_lookup", "core.stop"):
                    self.assertIn(n, names)
                self.assertEqual(
                    sum(s["name"] == "sim.slice" for s in doc["spans"]), 120)

    def test_slicing_does_not_change_the_digest(self):
        # Serial, churn-par's own shard count, and the host's 4 cores.
        for w in perfbench.WORKLOADS:
            for threads in (1, 2, 4):
                with self.subTest(workload=w, threads=threads):
                    sliced, shards = digest(self.binary, w, "--threads",
                                            str(threads))
                    single, _ = digest(self.binary, w, "--threads",
                                       str(threads), "--slices", "1")
                    self.assertEqual(sliced, single)
                    self.assertEqual(shards, threads)

    def test_refuses_without_simulator_sources(self):
        bare = perfbench.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "flood-1k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
