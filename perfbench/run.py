#!/usr/bin/env python3
"""Build and run the DeepMC benchmark.

Run from the root of a DeepMC checkout:

    python3 perfbench/run.py --workload check-cold --seed 1 --seconds 10 --trace 0

The script builds the benchmark with the local Go toolchain into
.bench_build/ (the Go build cache goes there too, so nothing outside the
checkout is written) and then replaces itself with the benchmark
process, passing every argument through.  The last line the benchmark
prints is its JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(home, "go"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "XDG_CACHE_HOME": os.path.join(home, "cache"),
    })
    binary = os.path.join(out, "bin", "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
