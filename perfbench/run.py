#!/usr/bin/env python3
"""Build and run the nemolmt repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload auto --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

The first form builds perfbench/ (and through it the runtime libraries)
into $CARGO_TARGET_DIR, default .bench_build/, then runs one workload.
Stdout's last line is the JSON result; build output goes to stderr. The
second form runs the benchmark's own unit tests and checks BENCHMARK.json
against perfbench/registry.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure once, then build `target`; return its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", target]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, target)


def bench_env(out_dir):
    """The caller's environment without ambient NEMO_* knobs, with the
    tuning cache pointed at a benchmark-owned path that holds no file, so
    every run uses the formula table rather than a calibrated cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEMO_")}
    cache = os.path.join(out_dir, "tune-cache.json")
    if os.path.exists(cache):
        os.remove(cache)
    env["NEMO_TUNE_CACHE"] = cache
    return env


def check_registry():
    """Every metric and workload in BENCHMARK.json has a registry entry and
    vice versa, and every per-layer metric names end-to-end metrics it
    should move."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "registry.json")) as f:
        reg = json.load(f)
    errors = []
    for key in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in bench[key]]
        if sorted(names) != sorted(reg[key]):
            errors.append(f"{key}: BENCHMARK.json and registry.json differ")
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, entry in reg["per_layer"].items():
        for target in entry["moves"]:
            if target not in e2e:
                errors.append(f"{name}: moves unknown metric {target}")
    for e in errors:
        print("registry: " + e, file=sys.stderr)
    print("registry check: " + ("FAILED" if errors else "ok"))
    return not errors


def main(argv):
    if argv == ["--test"]:
        exe = build("perfbench_test")
        if exe is None:
            return 2
        rc = subprocess.run([exe]).returncode
        return rc if rc else (0 if check_registry() else 1)

    exe = build("nemobench")
    if exe is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, *argv, "--out-dir", out_dir]
    try:
        return subprocess.run(cmd, env=bench_env(out_dir),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
