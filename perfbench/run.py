#!/usr/bin/env python3
"""End-to-end, layer-resolved benchmark of qpulse.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream_1q --seed 1 \\
        --seconds 15 --trace 0

`--workload all` runs the three workloads one after another.

Builds the qpulse libraries and the perfbench runner from source into
.bench_build/ (first run only), then runs one workload:

  --trace 0  set up several times (setup_s is the median), warm up,
             measure for --seconds, check every output, and compare
             the warm-up count fingerprint against a QPULSE_THREADS=1
             replay (which loads the run's calibration snapshot instead
             of calibrating again). Prints the end-to-end metrics.
  --trace 1  measure untraced for --seconds, replay exactly the same
             requests on a fresh pipeline with tracing on, and print
             the per-layer metrics, the per-span self-time table and
             the count-repeatability table.

The last stdout line is one JSON object:
  {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
Any failed output check makes the command exit non-zero.
See perfbench/README.md for the workloads, metrics and known defects.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("stream_1q", "vqe_2q", "compile_sweep")
THREADS = 4
BATCH = 64
# Set-ups per run (setup_s is their median): more where one is short.
SETUP_REPS = {"stream_1q": 9, "vqe_2q": 3, "compile_sweep": 3}
# Per-process ceiling; a whole invocation must end within 180 s.
PROCESS_TIMEOUT_S = 170

# The end-to-end metrics (--trace 0) and the per-layer metrics
# (--trace 1) this script reports; BENCHMARK.json lists the same.
END_TO_END = ("setup_s", "job_p50_ms", "jobs_per_s", "peak_rss_mb")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        proc = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            return False
    proc = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(THREADS)],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    return proc.returncode == 0 and os.path.exists(BINARY)


def bench_env(workload, cache_dir, threads):
    """Every QPULSE_* knob cleared, then the ones we own pinned.

    QPULSE_FAULT_PLAN, QPULSE_VIRTUAL_TIME, QPULSE_SIMD and
    QPULSE_TRACE stay unset: no backend faults, wall-clock time, the
    auto-detected SIMD tier, tracing only where the runner enables it.
    QPULSE_CACHE_DIR is a fresh run-private directory, except on
    stream_1q, which runs without the persistent tier (README.md).
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QPULSE_")}
    env.update({
        "QPULSE_THREADS": str(threads),
        "QPULSE_BATCH": str(BATCH),
        "QPULSE_TRACE_BUFFER": "65536",
    })
    if workload != "stream_1q":
        env["QPULSE_CACHE_DIR"] = cache_dir
    return env


def run_binary(args, env):
    """Run the runner binary; returns (meta line, result dict) or raises."""
    proc = subprocess.run([BINARY] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=False)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench %s exited %d" %
                           (" ".join(args), proc.returncode))
    meta = next((l for l in lines if l.startswith("perfbench meta:")), "")
    return meta, json.loads(lines[-1])


def code_identity():
    """`git describe`, or a digest of the sources outside a git tree."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def print_metrics(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))


def print_trace_tables(result):
    wall_us = result["wall_s"][1] * 1e6
    print("per-layer spans of the traced pass (%d requests, %.3f s):"
          % (result["traced_issued"], result["wall_s"][1]))
    print("  %-28s %9s %12s %12s %8s" %
          ("span", "calls", "total_ms", "self_ms", "self_%"))
    rows = sorted(result["spans"].items(), key=lambda kv: -kv[1][2])
    for name, (calls, total_us, self_us) in rows:
        print("  %-28s %9d %12.3f %12.3f %8.2f" %
              (name, calls, total_us / 1e3, self_us / 1e3,
               100.0 * self_us / wall_us))
    print("  unattributed wall share: %.2f %%" %
          result["metrics"]["trace.unattributed_pct"]["value"])
    print("counter deltas, untraced vs traced pass of the same requests"
          " (= marks an exact repeat):")
    for name, (a, b) in sorted(result["counts"].items()):
        print("  %s %-40s %16d %16d" % ("=" if a == b else "~", name, a, b))


def run_workload(workload, args):
    """Run and report one workload; returns (failures, result, metrics)."""
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" %
                           (workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    failures = []
    try:
        env = bench_env(workload, os.path.join(run_dir, "cache"), THREADS)
        if args.trace == 0:
            calibration = ["--calibration", os.path.join(run_dir, "calib")]
            meta, result = run_binary(
                common + calibration +
                ["--mode", "run", "--setup-reps", str(SETUP_REPS[workload]),
                 "--dir", os.path.join(run_dir, "run")], env)
            _, single = run_binary(
                common + calibration +
                ["--mode", "fingerprint", "--dir",
                 os.path.join(run_dir, "fp")],
                bench_env(workload, os.path.join(run_dir, "cache1"), 1))
            if single["fingerprint"] != result["fingerprint"]:
                failures.append(
                    "count fingerprint differs: QPULSE_THREADS=%d %s, "
                    "QPULSE_THREADS=1 %s" % (THREADS, result["fingerprint"],
                                             single["fingerprint"]))
            metrics = {k: result["metrics"][k] for k in END_TO_END}
        else:
            meta, result = run_binary(
                common + ["--mode", "trace", "--dir",
                          os.path.join(run_dir, "trace")], env)
            metrics = result["metrics"]
            if metrics["trace.events_dropped"]["value"] != 0:
                failures.append("trace dropped %d events" %
                                metrics["trace.events_dropped"]["value"])
        failures += result["check_failures"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("%s code=%s workload=%s trace=%d" %
          (meta, code_identity(), workload, args.trace))
    print_metrics("metrics:", metrics)
    if args.trace:
        print_trace_tables(result)
    else:
        print_metrics("workload figures (the traced run reports these "
                      "per layer):", result["figures"])
        print("setup samples (s): %s" % result["setup_samples_s"])
    for failure in failures:
        print("CHECK FAILED: " + failure)
    print("checks: %s" % ("all passed" if not failures else
                          "%d failed" % len(failures)))
    return failures, result, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        failures, result, own = run_workload(workload, args)
        correct = correct and not failures
        attempted += result["attempted"]
        failed += result["failed"]
        if len(workloads) == 1:
            metrics = own
        else:
            metrics.update({"%s.%s" % (workload, k): v
                            for k, v in own.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
