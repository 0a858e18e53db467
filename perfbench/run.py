#!/usr/bin/env python3
"""Build and run the broker-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wire_small --seed 1 --seconds 10 --trace 0

It builds the Go program in this directory (a module of its own that
uses the repository's packages through a replace directive) into
.bench_build/, keeping the Go build cache there too, so nothing is
written outside the working tree.  Then it runs the program with the
same arguments; the program's last line of output is the JSON result.
The exit code is the program's, or 1 when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    for d in ("gocache", "gomodcache", "gotmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Go's flag package accepts --name as well as -name.
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=root)
    # A terminated wrapper stops the benchmark too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
