#!/usr/bin/env python3
"""Build the xpose benchmark from the repository's sources and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The OCaml program (perfbench/xbench.ml) is
built with dune into .bench_build/ and runs the workload in a fresh
process; its last line of standard output is the JSON result. Exits
non-zero, without a result, when the sources or the toolchain are
missing or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/xbench.exe"
WORKLOADS = ("transpose_serial", "serve_pipelined", "ooc_window", "permute_nd")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a checkout of the repository: %s is missing" % needed)
    cmd = dune_command() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                            "--profile", "release", TARGET]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed (%s)" % " ".join(cmd))
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "xbench.exe")
    if not os.path.exists(exe):
        fail("build produced no %s" % exe)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("workload exited with code %d" % code)


if __name__ == "__main__":
    main()
