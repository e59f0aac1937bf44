#!/usr/bin/env python3
"""Builds and runs the DoMD benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's library and servers plus the benchmark binary into
$CARGO_TARGET_DIR (default .bench_build)/perfbench; later runs only check
the build. The benchmark's last stdout line is the result JSON. A directory
without the repository's sources fails before printing any result.
"""

import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("detached_predict", "routed_reference", "ingest_freshness",
             "retrain")
TARGETS = ("perfbench", "perfbench_selftest", "domd_serve", "domd_router")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"{' '.join(cmd)} failed (exit {done.returncode}):\n{tail}")


def source_hash(root):
    digest = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        for path in glob.glob(os.path.join(top, "**", "*"), recursive=True):
            if os.path.isfile(path):
                files.append(path)
    for path in sorted(files):
        digest.update(path.encode())
        with open(os.path.join(root, path), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_of(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported tree; source_hash identifies it.
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                *TARGETS], log_path)
    run_logged([os.path.join(build_dir, "perfbench_selftest")], log_path)

    work_dir = os.path.join(build_root, "work",
                            f"{args.workload}-{args.seed}-{args.trace}")
    results_dir = os.path.join(build_root, "results")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "domd", "tools"),
           "--work-dir", work_dir,
           "--commit", commit_of(root), "--source-hash", source_hash(root),
           "--build-type", "Release"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        for trace in glob.glob(os.path.join(work_dir, "trace-*.json")):
            shutil.copy(trace, results_dir)
    record = os.path.join(
        results_dir, f"{args.workload}-{args.seed}-trace{args.trace}.txt")
    with open(record, "w") as f:
        f.write(done.stdout)
        f.write(done.stderr)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        # Diagnostics only: a failed run prints no result line.
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
