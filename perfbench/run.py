#!/usr/bin/env python3
"""Build and run the SharPer benchmark (the Go program in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload intra-tcp --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark. The Go build cache, temporary
files and the binary all live under .bench_build/ in the checkout, so the
benchmark reads and writes nothing outside it. The last line of standard
output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
