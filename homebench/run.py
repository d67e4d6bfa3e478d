#!/usr/bin/env python3
"""Builds the router from source and runs one homebench workload.

Usage (from the root of a checkout):

    python3 homebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run in a checkout configures and compiles a Release build into
.bench_build/; later runs only check that it is up to date. Each workload
runs in its own process. Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before it come an `env` line (build type, compiler, NDEBUG, CPU model, nproc,
seed) and a `counts` line of deterministic work counts. The counts of every
run are kept under .bench_build/counts/, keyed by a hash of the sources; a
later run of the same sources, workload and seed whose counts differ fails.
The exit code is 0 only when every check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "homebench")
BINARY = os.path.join(BUILD_DIR, "homebench")
WORKLOADS = ("evening-fleet", "fastpath-stream", "flow-churn", "operator-live")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def fail(message):
    print("homebench: " + message, file=sys.stderr)
    sys.exit(2)


def cache_matches(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.exists(cache) and not cache_matches(cache):
            shutil.rmtree(BUILD_DIR)  # configured for a checkout elsewhere
        if not os.path.exists(cache):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) != 0:
            fail("build failed")


def source_hash():
    """Hash of every source the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "homebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_counts(workload, seed, counts):
    """Returns an error string when an earlier run of the same sources,
    workload and seed recorded different work counts."""
    ledger = os.path.join(BUILD_ROOT, "counts", source_hash())
    os.makedirs(ledger, exist_ok=True)
    path = os.path.join(ledger, "%s-%d.json" % (workload, seed))
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(path):
            with open(path) as f:
                earlier = json.load(f)
            if earlier != counts:
                return "work counts differ from an earlier run: %s vs %s" % (
                    json.dumps(counts, sort_keys=True),
                    json.dumps(earlier, sort_keys=True))
            return None
        with open(path + ".tmp", "w") as f:
            json.dump(counts, f, sort_keys=True)
        os.replace(path + ".tmp", path)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("router sources not found under %s/src" % ROOT)

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_ROOT, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("workload printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %r" % lines[-1][:200])

    env = {}
    counts = None
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("counts "):
            counts = json.loads(line[7:])
    env.update({"cpu": cpu_model(), "nproc": os.cpu_count(), "seed": args.seed})
    print("env " + json.dumps(env, sort_keys=True))
    if not env.get("ndebug", False):
        print("homebench: WARNING: build without NDEBUG; timings are not "
              "comparable", file=sys.stderr)

    problem = None
    if counts is None:
        problem = "no work counts printed"
    else:
        print("counts " + json.dumps(counts, sort_keys=True))
        problem = check_counts(args.workload, args.seed, counts)
    if problem is not None:
        print("homebench: check failed: " + problem, file=sys.stderr)
        result["correct"] = False
        result["failed"] = int(result.get("failed", 0)) + 1
    print(json.dumps(result))
    sys.stdout.flush()
    ok = result.get("correct") is True and proc.returncode == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
