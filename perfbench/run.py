#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload attack-kp512 --seed 1 --seconds 45 --trace 0

All arguments are passed on to the binary. The Go build cache, the
binary and the daemon state directories live in .bench_build/ at the
repository root, so a run reads and writes nothing outside the
checkout. Build output goes to standard error; the last line of
standard output is the binary's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [binary, "-root", ROOT, "-workdir", BUILD] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
