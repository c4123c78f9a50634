#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload msg-stream --seed 1 --seconds 20 --trace 0

All arguments go to the harness (see perfbench/README.md). The Go build
cache, temporary files and the binary stay under .bench_build/ in the
repository root, so nothing is written outside the checkout. The harness is
its own Go module that imports the repository's packages through a relative
replace directive; outside a full checkout the build fails and so does this
script, before any result is printed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "perfbench", "_harness")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    for d in ("gocache", "gopath", "gomodcache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
        # The go command keeps telemetry counters under the user config
        # directory; point that inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    })
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HARNESS, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # The harness keeps its own temporary files, if any, inside the checkout.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
