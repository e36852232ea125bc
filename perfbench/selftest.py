#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It runs the benchmark's unit tests,
then checks that:

- every workload, untraced and traced, exits 0 and ends with a JSON result
  that names exactly the metrics BENCHMARK.json lists for that mode, each
  with its unit and a finite value;
- a tampered forest and a tampered server reply each make the run exit
  nonzero with "correct": false.

Exit code 0 means every check passed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own launcher)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def bench(*args):
    """Runs the built benchmark at tiny size; returns (exit code, result)."""
    binary = os.path.join(run.target_dir(), "release", "llp-perfbench")
    work_dir = os.path.join(run.target_dir(), "perfbench-selftest")
    cmd = [binary, "--size", "tiny", "--seconds", "1", "--work-dir", work_dir, *args]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", run.MANIFEST],
        cwd=run.ROOT,
        env=env,
    )
    check(unit.returncode == 0, "unit tests")
    check(run.build(run.target_dir()), "release build")
    if failures:
        return 1

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            name = w["name"]
            code, result, out = bench("--workload", name, "--seed", "7", "--trace", trace)
            what = f"{name} --trace {trace}"
            check(code == 0 and result is not None and result["correct"], f"{what}: exits 0, correct")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{what}: attempted, none failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what}: every {key} metric with its unit")
            finite = all(math.isfinite(v["value"]) for v in result["metrics"].values())
            check(finite, f"{what}: finite values")
            if code != 0:
                print(out)

    for tamper, workload in (("forest", "rmat-solve"), ("reply", "serve-rw")):
        code, result, _ = bench("--workload", workload, "--seed", "7", "--trace", "0", "--tamper", tamper)
        check(code != 0 and result is not None and not result["correct"], f"tampered {tamper} fails the run")

    print(f"{len(failures)} check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
