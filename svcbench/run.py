#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

    python3 svcbench/run.py --workload hit-stream --seed 1 --seconds 10 --trace 0

Run from the root of a segroute checkout. The benchmark and the segroute
library (../src) are configured and built with CMake into
$CARGO_TARGET_DIR/svcbench (default .bench_build/svcbench); later runs
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Ledger and
trace files from --trace 1 land in the build directory under ledger/.

Exit codes: the benchmark's own (0 ok, 1 a check failed, 2 bad
arguments); 2 when the sources are missing or the build fails; 3 when the
benchmark overran its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hit-stream", "miss-stream", "edit-session")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "svcbench")


def build():
    """Configures (once) and builds svcbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "segroute.h")):
        fail("segroute sources (src/) not found next to svcbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", "2"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "svcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    ledger_dir = os.path.join(build_dir(), "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", ledger_dir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code is None:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
