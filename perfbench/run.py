#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <design|replay|serve> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run it from the root of the repository. It builds the `perfbench` package
(release profile, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs the workload in a process of its own and passes
its output through. The last line of output is the benchmark's JSON
result. The exit code is non-zero when the build fails, a correctness gate
fails or the run does not finish in time; then no result line is printed
unless the program printed one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("design", "replay", "serve")
# A run must end within 180 s; leave room for the build check and start-up.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (for the benchmark's own tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(env):
    """Builds the release binary; returns its path, or None on failure."""
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest)]
    # Build output goes to stderr so stdout ends with the result line.
    res = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        return None
    exe = Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"
    return exe if exe.is_file() else None


def main(argv):
    args = parse_args(argv)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    # glibc raises its mmap threshold as large blocks are freed, so which
    # allocations end up on the heap depends on the order in which the
    # sweep's worker threads free them: peak RSS then jumps by up to 25%
    # between identical runs. A fixed threshold makes it repeat.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=run_env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if proc.returncode != 0 or result.get("correct") is not True:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
