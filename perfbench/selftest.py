#!/usr/bin/env python3
"""Self-tests of the LASER benchmark.

    python3 perfbench/selftest.py

1. Every workload runs at a tiny input scale, untraced and traced, with
   every check passing and every metric its mode promises present.
2. An injected fault (a flipped trace byte; a mismatched detection
   report) is counted as failed operations: the run still exits 0 and
   prints its result, with "correct": false and failed > 0.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every test passes.
"""

import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling bytecode caches in the tree)

TINY = "0.25"
failures = []


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def expected_metrics(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def tiny_run(binary, workload, trace, inject=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", trace, "--scale-mult", TINY]
    if inject:
        args += ["--inject", inject]
    return run.run_binary(binary, args)


def main():
    binary = run.build()

    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = tiny_run(binary, workload, trace)
            res = result_of(proc)
            name = f"{workload} trace={trace} tiny run"
            if proc.returncode != 0 or res is None:
                check(name, False, f"exit {proc.returncode}")
                continue
            missing = expected_metrics(trace == "1") - set(res["metrics"])
            check(name, res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0 and not missing,
                  f"result {res}, missing {sorted(missing)}")

    for workload, fault in (("replay_sweep", "flip-byte"),
                            ("replay_sweep", "report"),
                            ("capture_sharing", "report")):
        proc = tiny_run(binary, workload, "0", fault)
        res = result_of(proc)
        check(f"{workload} with injected {fault} counts failures",
              proc.returncode == 0 and res is not None and
              not res["correct"] and res["failed"] > 0,
              f"exit {proc.returncode}, result {res}")

    alone = run.BUILD_ROOT / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", alone)
    shutil.copytree(run.HERE, alone / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "capture_sharing", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=alone, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(alone, ignore_errors=True)
    check("benchmark alone (no source tree) exits non-zero silently",
          proc.returncode != 0 and not proc.stdout.strip(),
          f"exit {proc.returncode}, stdout {proc.stdout!r}")

    print("all self-tests passed" if not failures
          else f"{len(failures)} self-test(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
