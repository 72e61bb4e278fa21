#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the engine and the workload runner
from source (Release, into $CARGO_TARGET_DIR or .bench_build), runs the
workload in its own process with a private scratch directory under
.bench_tmp that is removed afterwards, and passes the runner's output
through: the last line of stdout is the result object. Full records and
the traced run's spans are kept under .bench_out. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("amplab_colf", "cached_columnar", "spill_pressure", "short_queries")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the engine sources and the benchmark, for the run stamp
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root, build_dir):
    """Configures once, then builds incrementally; serialized by a lock so
    concurrent runs in one checkout do not build over each other."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_runner")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/; nothing to build")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        runner = build(root, build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2

    out_dir = os.path.join(root, ".bench_out")
    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=tmp_root)
    sha = git_sha(root)
    if sha == "unknown":
        sha = "unknown+src:" + source_digest(root)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--out-dir", out_dir, "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        log("workload runner exited with code %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
