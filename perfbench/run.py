#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <audit|serve|store> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `odc` binary and the
benchmark harness (perfbench/, a package of its own) from source with
`cargo build --offline --release` into $CARGO_TARGET_DIR (default
.bench_build), then runs the harness. Program state and generated inputs
go to .bench_work/. The last line of standard output is the JSON result;
see perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tree_digest():
    """A digest of the sources the program is built from (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    names = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            names += [os.path.relpath(os.path.join(d, f), ROOT) for f in files]
    for n in sorted(names):
        path = os.path.join(ROOT, n)
        if os.path.isfile(path):
            h.update(n.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["audit", "serve", "store"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ("Cargo.toml", "src", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing: run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--offline", "--release", "--quiet", "--bin", "odc",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 2

    work = os.path.join(ROOT, ".bench_work", args.workload)
    cmd = [
        os.path.join(target, "release", "odc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--odc", os.path.join(target, "release", "odc"),
        "--work", work,
        "--provenance", f"git_rev={git_rev()}",
        "--provenance", f"source_digest={tree_digest()}",
        "--provenance", "profile=release",
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
