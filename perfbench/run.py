#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo workspace of its own, with path
dependencies on the library crates) in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then runs
it. Cargo's output goes to standard error; standard output is the
benchmark's, whose last line is the JSON result. The exit code is the
benchmark's, or 1 if the build fails or the run overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_LIMIT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target, "perfbench-out")]
    # A session of its own, so a timeout can stop the trial processes too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    start = time.monotonic()
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s after {time.monotonic() - start:.0f} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
