#!/usr/bin/env python3
"""End-to-end serving benchmark: build loki_perf from this checkout, run one
workload, print its metrics.

    python3 perfbench/run.py --workload diurnal-seq --seed 1 --seconds 20 --trace 0

--seed defaults to DEFAULT_SEED; --held-out runs HELD_OUT_SEED instead, the
seed kept back for validating a performance claim made on other seeds. The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The line before it is the run's provenance. Exit status is 0 only
when the build succeeded and every output check passed. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("diurnal-seq", "steady-coord", "flash-tiered")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build loki_perf (incremental after the first run)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a loki source tree (no CMakeLists.txt or src/)")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "loki_perf"


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file()
                  and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    seed = ap.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed.add_argument("--held-out", action="store_true",
                      help=f"run the held-out seed {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    run_seed = HELD_OUT_SEED if args.held_out else args.seed

    binary = build()
    env = dict(os.environ, LOKI_MILP_NO_TIME_LIMIT="1")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(run_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"loki_perf did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"loki_perf printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="")
        fail(f"loki_perf exited {proc.returncode} without a result line")

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            print(line)
    provenance.update(git_commit=git_commit(), source_digest=source_digest(),
                      default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED)
    if args.trace == 1:
        overhead = result["metrics"].get("trace.overhead", {}).get("value")
        provenance["tracing_overhead"] = overhead
    print(f"seeds: ran {run_seed} (default {DEFAULT_SEED}, "
          f"held-out {HELD_OUT_SEED})")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
