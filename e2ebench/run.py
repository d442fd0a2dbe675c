#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload equiv-flow --seed 1 --seconds 20 --trace 0

It builds the e2ebench Go module (which reaches the repository's packages
through a replace directive) into .bench_build/ and runs it with the given
arguments.  The Go build cache, temporary files, the go command's telemetry
counters, spans and CPU profiles all stay under .bench_build/.  The last line of standard output is the JSON
result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps its telemetry counters under the user config
        # directory; point it into the build directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "e2ebench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        sys.exit(2)
    args = sys.argv[1:] + ["--trace-dir", os.path.join(build, "traces")]
    sys.stdout.flush()
    os.execve(binary, [binary] + args, env)


if __name__ == "__main__":
    main()
