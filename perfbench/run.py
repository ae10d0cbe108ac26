#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hl-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare old.txt new.txt

Everything the Go toolchain writes (build cache, temporary files, the
binary) goes under .bench_build/ in the checkout. The build needs the
repository's own module next to this directory; without it the build fails
and this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        # The provenance lookup runs git; keep it from searching above the
        # checkout.
        GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
