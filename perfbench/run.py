#!/usr/bin/env python3
"""Build and run the LASER benchmark (one workload per invocation).

    python3 perfbench/run.py --workload capture_sharing --seed 1 \
        --seconds 20 --trace 0

Builds laser_perfbench (Release) from the source tree that contains this
directory into .bench_build/ at the tree's root, runs it, and relays its
output. The last stdout line is the result JSON object. Build output
goes to stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench-release"
OUT_DIR = BUILD_ROOT / "out"
BINARY = BUILD_DIR / "laser_perfbench"
WORKLOADS = ("capture_sharing", "capture_breadth", "replay_sweep")
# A run of the binary stops itself after 120 s of measuring; this only
# guards against a hang.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build laser_perfbench; exit on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no LASER source tree at {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "laser_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return BINARY


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run laser_perfbench from the tree root; returns CompletedProcess."""
    cmd = [str(binary), "--out-dir", str(OUT_DIR)] + args
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"laser_perfbench did not finish within {timeout} s", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale-mult", type=float,
                   help="multiply every input scale (self-tests)")
    p.add_argument("--inject", choices=("flip-byte", "report"),
                   help="inject a fault (self-tests)")
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.scale_mult is not None:
        args += ["--scale-mult", str(a.scale_mult)]
    if a.inject:
        args += ["--inject", a.inject]
    res = run_binary(binary, args)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
