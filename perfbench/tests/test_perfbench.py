#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny runs of every workload.

    python3 perfbench/tests/test_perfbench.py

Checks that a tiny run of each workload finishes in seconds with every
metric BENCHMARK.json declares; that its trace parses with the json module;
that every child span lies within its parent; that each layer's span count
equals the driver's call count; and that virtual-time metrics repeat
exactly across runs. The first run builds the driver (about a minute).
"""
import json
import os
import subprocess
import sys
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("paper_suite", "engine_waves", "multi_tenant")
# Floating-point rounding of the trace's microsecond timestamps (3 decimals).
EPS_US = 0.003


def run(workload, trace, seed=7):
    """Runs a tiny workload; returns (result dict, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        time.monotonic() - t0


def trace_path(workload):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench", "traces", f"{workload}.trace.json")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        run("engine_waves", 0)  # builds the driver once, untimed

    def check_metrics(self, result, section):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_tiny_runs_finish_in_seconds(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, secs = run(w, 0)
                self.check_metrics(result, "end_to_end")
                self.assertLess(secs, 30)
                for m in self.spec["end_to_end"]:
                    self.assertNotEqual(result["metrics"][m["name"]]["value"],
                                        0, m["name"])

    def test_virtual_metrics_repeat_exactly(self):
        virt = [m["name"] for m in self.spec["end_to_end"]
                if m["unit"].startswith("virt")]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = run(w, 0, seed=11)
                b, _ = run(w, 0, seed=11)
                for name in virt:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_traces(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, 1)
                self.check_metrics(result, "per_layer")
                with open(trace_path(w)) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertTrue(events)
                by_id = {e["args"]["id"]: e for e in events}
                self.assertEqual(len(by_id), len(events), "span ids repeat")
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)
                    parent = e["args"]["parent"]
                    if parent == 0:
                        continue
                    p = by_id[parent]
                    self.assertEqual(p["tid"], e["tid"])
                    self.assertLessEqual(p["ts"], e["ts"] + EPS_US)
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"] + EPS_US)
                counts = {}
                for e in events:
                    counts[e["cat"]] = counts.get(e["cat"], 0) + 1
                calls = trace["otherData"]["calls"]
                for layer, n in calls.items():
                    self.assertEqual(counts.get(layer, 0), n, layer)
                self.assertEqual(result["metrics"]["trace.spans"]["value"],
                                 len(events))


if __name__ == "__main__":
    unittest.main()
