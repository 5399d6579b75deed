#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fig14-sample --seed 1 --seconds 10 --trace 0

Builds the simulator library and the perfbench driver from source
(CMake, Release) into the build directory (CARGO_TARGET_DIR, else
.bench_build), then runs one workload. The driver's last stdout line is
the result object {correct, attempted, failed, metrics}; the exit code is
non-zero when the build fails or any correctness check fails.

    python3 perfbench/run.py --self-test

checks the gate itself: a corrupted pinned digest must make the run fail,
and QPRAC_* environment variables must not change any result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ["fig14-sample", "abo-storm", "engine-8ch"]
RUN_TIMEOUT_S = 170
PINNED_SEED = "1"  # a seed with digests in digests.json


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build; returns the driver path or None."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of a git checkout at the root, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def driver_cmd(exe, workload, seed, seconds, trace):
    return [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--digests", os.path.join(BENCH_DIR, "digests.json"),
            "--tmp-dir", os.path.join(build_dir(), "tmp"),
            "--source-digest", source_digest(), "--commit", commit()]


def run_driver(cmd, env=None):
    """Run the driver, passing its stdout through; returns its exit code."""
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1


def self_test(exe):
    base = driver_cmd(exe, "engine-8ch", PINNED_SEED, 0, 0)
    if run_driver(base + ["--corrupt-digest"]) == 0:
        log("self-test FAILED: a corrupted pinned digest was accepted")
        return 1
    env = dict(os.environ, QPRAC_INSTS="1000", QPRAC_LLC_MB="64",
               QPRAC_SEED="99", QPRAC_THREADS="3",
               QPRAC_CACHE_DIR=os.path.join(build_dir(), "tmp", "stray"))
    if run_driver(base, env=env) != 0:
        log("self-test FAILED: QPRAC_* environment changed the results")
        return 1
    log("self-test passed: corrupted digest rejected, environment ignored")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=int(PINNED_SEED))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        log("build failed")
        return 1
    if args.self_test:
        return self_test(exe)
    return run_driver(driver_cmd(exe, args.workload, args.seed,
                                 args.seconds, args.trace))


if __name__ == "__main__":
    sys.exit(main())
