#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` Cargo package
(a workspace of its own that depends on the repository's crates by path) in
release mode into $CARGO_TARGET_DIR, `.bench_build` when unset, then runs
it and passes its output through. The last line of standard output is the
JSON result. The exit code is 0 when the run finished and every output it
checked was correct, 1 when an output was wrong, and 2 or 3 when the build
failed or the run could not finish.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run measures for at most a minute; the rest is set-up and checks.
RUN_TIMEOUT_S = 175


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    """Builds the benchmark binary; cargo's own output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False


def run(argv):
    target = target_dir()
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "llp-perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    # The program's own telemetry stays off: the benchmark traces from
    # outside, and only in its traced runs.
    env = {k: v for k, v in os.environ.items() if k != "LLP_TELEMETRY"}
    # glibc raises its mmap threshold the first time a large block is
    # freed; from then on large blocks are recycled from the heap without
    # page faults. When that happens depends on the run's allocation
    # history, and the two modes differed by up to 25% in whole-run
    # medians (README.md, steadiness rule 6). A fixed threshold keeps every
    # run in one mode: large blocks are always fresh mappings, as in a
    # process that solves once.
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"
    try:
        done = subprocess.run(
            [binary, *argv, "--work-dir", work_dir], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
