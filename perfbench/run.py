#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's packages through a replace directive. This
script builds it into the build directory ($CARGO_TARGET_DIR when set,
else .bench_build), keeps the Go build cache and temporary files there
too, then runs the binary with the given arguments. Build output goes to
stderr; the binary's stdout and exit code are the command's.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary, "-dir", build] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
