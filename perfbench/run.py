#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bist_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds the `perfbench` package (its own Cargo workspace next to this file)
and the `fbt-serve` binary in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload. Cargo's output goes to
standard error; the benchmark's last line of standard output is its JSON
result. Traces go to `.bench_out/`.

`--self-check` runs every workload once against a deliberately corrupted
reference and fails unless each run reports the mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["bist_large", "sat_catalog", "serve_mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    for extra in (["--bin", "perfbench"], ["-p", "fbt-serve", "--bin", "fbt-serve"]):
        done = subprocess.run(base + extra, stdout=sys.stderr, env=env)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)


def probe(cmd, cwd):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args, env, target, extra):
    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ] + extra
    return subprocess.run(cmd, env=env, capture_output=bool(args.self_check), text=True)


def self_check(args, env, target):
    args.seconds = 1
    args.trace = "0"
    for workload in WORKLOADS:
        args.workload = workload
        done = run(args, env, target, ["--corrupt-reference"])
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last)
        caught = done.returncode == 0 and result.get("correct") is False and result.get("failed", 0) > 0
        print(f"self-check {workload}: corrupted reference {'caught' if caught else 'NOT caught'}")
        if not caught:
            sys.stderr.write(done.stderr)
            return 1
    print("self-check passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1; hold-out 2)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the workload's committed reference: "
                         "reference/sat_catalog.jsonl, or --seed's entry in "
                         "reference/bist_large.jsonl")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = probe(["git", "rev-parse", "HEAD"], root)
    env["PERFBENCH_RUSTC"] = probe(["rustc", "-V"], root)
    env["PERFBENCH_COMMIT"] = commit

    if args.self_check:
        return self_check(args, env, target)
    extra = ["--write-reference"] if args.write_reference else []
    return run(args, env, target, extra).returncode


if __name__ == "__main__":
    sys.exit(main())
