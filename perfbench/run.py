#!/usr/bin/env python3
"""Build and run the benchmark driver for one workload; print one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--size full|tiny]

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the runtime from src/ plus the driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
driver. The driver's readable table goes to stderr; the last line of stdout
is {"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics
are the per-layer ones and the spans of the last traced repetition are
written to <build dir>/traces/<workload>.trace.json.

Exits non-zero without printing a result when the build fails, the driver
fails, or its metrics do not match BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "engine_waves", "multi_tenant")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build the driver; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", out, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(out, "perfbench_driver")
    return exe if os.access(exe, os.X_OK) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    out = build_dir()
    exe = build(out)
    if exe is None:
        log("build failed")
        return 1
    want = expected_metrics(args.trace)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(args.seconds + 120, 170))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"driver exited {proc.returncode} without a result")
        return 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics do not match BENCHMARK.json: got {sorted(got)}, "
            f"want {sorted(want)}")
        return 1
    print(json.dumps(result))
    if not result["correct"]:
        log("a correctness check failed")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
