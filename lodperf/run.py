#!/usr/bin/env python3
"""Build the lodperf benchmark from source and run it.

Run from the root of a checkout:

    python3 lodperf/run.py --workload lecture_replay --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary. The Go build cache,
module cache, temporary files and the binary all live in .bench_build/
inside the checkout, so the build reads and writes nothing outside it.
The exit code is the benchmark's; a failed build exits 3 and prints no
result line.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lodperf")

# One run must end well inside three minutes; a traced run measures two
# windows.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
        ("HOME", "home"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOWORK="off",
               GOTOOLCHAIN="local", GOTELEMETRY="off", CGO_ENABLED="0")
    env.pop("GOMAXPROCS", None)
    return env


def build(env):
    go = shutil.which("go", path=env.get("PATH")) or "/usr/local/go/bin/go"
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("lodperf: no go.mod at the checkout root; the benchmark "
              "builds the repository's own module", file=sys.stderr)
        return False
    try:
        proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=BENCH_DIR,
                              env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("lodperf: build failed:", err, file=sys.stderr)
        return False
    return proc.returncode == 0


def main():
    env = go_env()
    if not build(env):
        return 3
    # The build rewrites the binary; write it back now, or the first
    # fsync a workload makes during set-up (the durable catalog) waits
    # for those pages too.
    os.sync()
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("lodperf: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
