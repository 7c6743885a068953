#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark driver from the checkout's sources
into .bench_build/ (Release; the first run of a checkout pays the build),
runs the workload for S seconds, measures set-up in fresh processes
before and after it, and prints, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The line before it is the host manifest.
Exits non-zero, without a result line, when the build fails, and with
code 1 after the result line when any check failed. README.md describes
the workloads and metrics; --root measures another checkout's sources
with this benchmark (used by ab.py).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mcf-4ch", "namd-4ch", "dos-storm", "wave-sweep")
# Set-up is timed in fresh processes for this many seconds before the
# timed run and as many after it, so it samples the host at both ends of
# the run; the median is reported. A cheap set-up gets more processes.
SETUP_SECONDS = 2.0
# ... but never in fewer processes than this, before and after.
SETUP_MIN_PROCESSES = 5
# Every run must end within this many seconds (build excluded).
RUN_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def configured_from(cache):
    """The benchmark source directory a CMake cache was made from."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(root, build_dir):
    """Configure once, then bring the driver up to date; False on error."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build dir made by another copy of the benchmark would build
        # that copy's driver, not this one.
        src = configured_from(cache)
        if src is None or os.path.realpath(src) != os.path.realpath(BENCH_DIR):
            log("perfbench: %s was configured from %s, not %s; remove it"
                % (build_dir, src, BENCH_DIR))
            return False
    else:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DQPRAC_ROOT=" + root])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def run_driver(cmd, deadline):
    """Run one driver process; (parsed last line, error message)."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out: " + " ".join(cmd)
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "exit %d: %s" % (p.returncode, " ".join(cmd))
    try:
        return json.loads(lines[-1]), None
    except ValueError as e:
        return None, "unreadable output (%s): %s" % (e, " ".join(cmd))


def measure_setup(base, deadline, setups, failures):
    """Time set-up in fresh processes for SETUP_SECONDS, in at least
    SETUP_MIN_PROCESSES of them; returns (attempted, failed)."""
    attempted = failed = 0
    end = time.monotonic() + SETUP_SECONDS
    while attempted < SETUP_MIN_PROCESSES or time.monotonic() < end:
        out, err = run_driver(base + ["--setup-only"], deadline)
        attempted += 1
        if out is None or out["failed"]:
            failed += 1
            failures.append(err or "; ".join(out["failures"]))
            continue
        for name, value in out["metrics"].items():
            setups.setdefault(name, []).append(value)
    return attempted, failed


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def git_sha(root):
    try:
        p = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, root, build_dir):
    with open(os.path.join(build_dir, "build_manifest.json")) as f:
        built = json.load(f)
    core = built.pop("qprac_core")
    return {
        "git_sha": git_sha(root),
        "compiler": built["compiler"],
        "build_type": built["build_type"],
        "flags": " ".join(built["flags"].split()),
        "qprac_core": {
            "path": os.path.relpath(core, root),
            "bytes": os.path.getsize(core),
            "sha256": file_sha256(core),
        },
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=DEFAULT_ROOT,
                    help="checkout whose src/ is measured")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.abspath(args.root)
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    exe = os.path.join(build_dir, "perfbench")
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    attempted = failed = 0
    failures = []
    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]

    setups = {}
    before = measure_setup(base, deadline, setups, failures)

    workdir = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    out, err = run_driver(base + ["--seconds", str(args.seconds),
                                  "--workdir", workdir], deadline)
    shutil.rmtree(workdir, ignore_errors=True)
    after = measure_setup(base, deadline, setups, failures)
    attempted += before[0] + after[0]
    failed += before[1] + after[1]
    metrics = {}
    if out is None:
        attempted += 1
        failed += 1
        failures.append(err)
    else:
        attempted += out["attempted"]
        failed += out["failed"]
        failures += out["failures"]
        metrics.update(out["metrics"])
        log("perfbench: %s seed=%d trace=%d %s" % (
            args.workload, args.seed, args.trace,
            " ".join("%s=%s" % kv for kv in sorted(out["info"].items()))))
    for name, values in setups.items():
        if args.trace == 0 or name != "setup_s":
            metrics[name] = statistics.median(values)
    if len(setups.get("setup_s", [])) >= 2:
        values = setups["setup_s"]
        q1, _, q3 = statistics.quantiles(values, n=4)
        log("perfbench: setup_s over %d processes: median=%.6g "
            "iqr/median=%.3f" % (len(values), statistics.median(values),
                                 (q3 - q1) / statistics.median(values)))

    result = {}
    for m in wanted:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]],
                                 "unit": m["unit"]}
        elif out is not None:
            attempted += 1
            failed += 1
            failures.append("metric %s was not measured" % m["name"])
    for f in failures:
        log("perfbench: FAILED:", f)

    print(json.dumps({"manifest": manifest(args, root, build_dir)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
