#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload for one seed.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-conll --seed 1 --seconds 10 --trace 0

Steps: `cargo build --release --offline` of the benchmark package, then
`perfbench gen` writes the seeded inputs (snapshot bytes and documents) to
a scratch directory, then `perfbench run` loads them, measures, checks the
outputs and prints the result object as the last line of standard output.
Generation runs in its own process so that the measured process's peak
RSS holds only what the program itself needs.

Build output and inputs go under $CARGO_TARGET_DIR (default
perfbench/target). Exits non-zero, printing no result, when any step fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-conll", "serve-mixed", "stream-news")


def source_revision(root):
    """Git commit when the tree is a checkout, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("crates", "vendor", "perfbench"):
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(target, "release", "perfbench")

    work = os.path.join(target, "perfbench-runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        gen = subprocess.run([exe, "gen"] + common, stdout=sys.stderr)
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        run = subprocess.run(
            [exe, "run"] + common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", source_revision(root),
               "--out", os.path.join(target, "perfbench-reports")],
            stdout=subprocess.PIPE, text=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with code {run.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
