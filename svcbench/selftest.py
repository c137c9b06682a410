#!/usr/bin/env python3
"""Self-test of the service benchmark.

    python3 svcbench/selftest.py

Run from the root of a segroute checkout. Builds the benchmark (as
run.py does), then checks:
  - the percentile and summary code (stats.h) on known vectors;
  - a one-second run of every workload in BENCHMARK.json, untraced and
    traced: exit code 0, a clean result, and every metric of the
    definition printed by name with its unit, nothing else;
  - the same on a held-out seed;
  - that the benchmark fails without printing a result where the
    segroute sources are missing.
Exits 0 when every check passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

HELD_OUT_SEED = 987654321
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("svcbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(defn, workload, seed, trace):
    tag = f"{workload} seed {seed} trace {trace}"
    p = bench(workload, seed, trace)
    check(p.returncode == 0, f"{tag}: exit code {p.returncode}: {p.stderr[-500:]}")
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{tag}: last line is not JSON")
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(res)}")
    check(res.get("correct") is True and res.get("failed") == 0,
          f"{tag}: not correct")
    check(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
          f"{tag}: attempted {res.get('attempted')}")
    want = {m["name"]: m["unit"]
            for m in defn["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    check(set(got) == set(want),
          f"{tag}: metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        check(m.get("unit") == unit, f"{tag}: {name} unit {m.get('unit')}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{tag}: {name} value {v}")
        check(any(l.startswith(f"metric {name} ") and l.endswith(f" {unit}")
                  for l in lines), f"{tag}: no 'metric {name} ... {unit}' line")
    check(any(l.startswith("host {\"hardware_threads\"") and
              "effective_cores" in l for l in lines), f"{tag}: no host record")
    check(any(l.startswith("error_rate ") for l in lines),
          f"{tag}: no error_rate line")
    if trace:
        check(any("dominant layer:" in l for l in lines),
              f"{tag}: ledger names no dominant layer")
        check(any("closure" in l for l in lines), f"{tag}: no closure line")


def main():
    exe = run.build()
    p = subprocess.run([os.path.join(os.path.dirname(exe), "svcbench_selftest")],
                       capture_output=True, text=True)
    print(p.stdout, end="")
    check(p.returncode == 0, "stats self-test")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        defn = json.load(f)
    for w in defn["workloads"]:
        for trace in (0, 1):
            check_run(defn, w["name"], 1, trace)
        check_run(defn, w["name"], HELD_OUT_SEED, 0)

    # Only BENCHMARK.json and the benchmark's own files: no result.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "svcbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(defn["workloads"][0]["name"], 1, 0, cwd=bare)
    check(p.returncode != 0, "bare directory: exit code 0")
    check(not any(l.startswith("{") for l in p.stdout.splitlines()),
          "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "all checks passed" if not failures
          else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
