#!/usr/bin/env python3
"""Builds the xtv benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit_flat_serial --seed 1999 \
        --seconds 15 --trace 0 [--smoke]

The library and the driver are compiled by perfbench/CMakeLists.txt into
.bench_build/ (a Release build; the first run also characterizes the cell
library into .bench_out/). Build output goes to stderr, so the last line of
stdout is the driver's JSON result. Exits non-zero, without a result, when
the build or the run fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "xtv_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [DRIVER] + sys.argv[1:] + ["--commit", commit()]
    # Own process group: a timed-out run takes its forked daemon and
    # shard workers down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
