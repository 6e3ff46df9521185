#!/usr/bin/env python3
"""One runner for every google-benchmark suite, gated against bench/.

Usage: bench.py SUITE [--quick] [--rebaseline] [OUT.json]
       bench.py SUITE [--quick] --check REPORT.json

A run builds the suite's targets (Release tree in $BENCH_BUILD_DIR, default
build-release), runs each binary with its filter and environment, stamps the
report with SCHEMA_VERSION and writes OUT.json (default BENCH_<suite>.json in
the repo root). It then gates the report against the suite's committed
baseline, or with --rebaseline copies it over that baseline instead.
--check gates an existing report without running anything.

--quick runs each benchmark for ~10 ms and turns the items_per_second floors
off. Every other gate still runs: pivot counts, simulated outcomes, exact
bit-identity flags and paired overhead ratios do not depend on wall time.

The SUITES table below is the whole configuration. Gates are rows
(kind, benchmark prefix, counter, bound):
  floor  candidate >= baseline * (1 - bound), per benchmark (off in --quick)
  sum    sum of the counter <= baseline sum * (1 + bound)
  rel    candidate <= baseline * (1 + bound), per benchmark
  min / max / eq   candidate >= / <= / == bound, absolute
A report with repetitions is read through its *_mean aggregate rows.

Exit codes: 0 ok, 1 regression, 2 malformed input or schema mismatch,
3 bench targets unavailable, 4 warm/cold plan divergence in abl_allocator.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Bump when the meaning of a gated quantity changes (counter renames, unit
# changes, ...) so reports of different meanings never get compared.
SCHEMA_VERSION = 1

# post(build, env, reports, out) turns the runs' reports into the suite's
# report; without it the suite has one run and keeps its report as is.
Suite = namedtuple("Suite", "targets runs env repetitions baseline gates post",
                   defaults=(None,))

# Pins branch-and-bound to its deterministic node budget, so pivot counts
# and simulated outcomes match across hosts and between paired gate arms.
MILP_NODE_BUDGET = {"LOKI_MILP_NO_TIME_LIMIT": "1"}

# Counters the merged solver report keeps from each benchmark row.
SOLVER_COUNTERS = (
    "pivots", "bound_flips", "pivots_per_resolve", "warm_fraction",
    "lp_pivots", "phase1_pivots", "nodes", "warm_hits", "cold_solves",
    "epoch_warm_hits", "epoch_cache_skips", "milp_solves", "devex_resets",
    "presolve_rows_removed", "presolve_cols_removed", "near_warm_hits")


def floor(prefix):
    # Wall-clock throughput is load-sensitive (the baselines come from a
    # shared 1-vCPU VM), hence the wide slack.
    return ("floor", prefix, "items_per_second", 0.35)


def passive(bench):
    # Armed-but-inert machinery left every simulation metric bit-identical.
    return ("min", bench, "bit_identical", 1.0)


def merge_solver_reports(reports):
    """Flattens the abl_solver and tab_runtime_overhead reports into one
    list of {binary, name, real_time_ns, solver counters} rows."""
    merged = {"benchmarks": []}
    for binary, report in reports:
        merged.setdefault("context", report.get("context", {}))
        for b in report.get("benchmarks", []):
            entry = {"binary": binary, "name": b["name"],
                     "real_time_ns": b["real_time"] * {
                         "ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[
                             b["time_unit"]]}
            entry.update((k, v) for k, v in b.items()
                         if k in SOLVER_COUNTERS)
            merged["benchmarks"].append(entry)
    return merged


def solver_post(build, env, reports, out):
    """Merges the two solver reports and runs the abl_allocator cross-epoch
    warm-start ablation, which writes BENCH_allocator.json beside OUT."""
    alloc = os.path.join(os.path.dirname(out), "BENCH_allocator.json")
    proc = subprocess.run([os.path.join(build, "abl_allocator"),
                           f"--json={alloc}"], env=env,
                          stdout=subprocess.PIPE, text=True)
    log = proc.stdout.splitlines()
    if proc.returncode != 0:
        print("abl_allocator failed (warm/cold plan divergence?)",
              file=sys.stderr)
        print("\n".join(log[-20:]), file=sys.stderr)
        sys.exit(4)
    print("\n".join(log[-12:]))
    return merge_solver_reports(reports)


SUITES = {
    "solver": Suite(
        targets=("abl_solver", "tab_runtime_overhead", "abl_allocator"),
        runs=(("abl_solver", None),
              ("tab_runtime_overhead", "BM_RawSimplex|BM_ResourceManagerMilp"
               "|BM_ResourceManagerSteadyReplan")),
        env=MILP_NODE_BUDGET, repetitions=1,
        baseline="bench/BENCH_solver_baseline.json",
        # Cold 3-step allocation pivots are deterministic work counts.
        gates=(("sum", "BM_ResourceManagerMilp/", "lp_pivots", 0.20),),
        post=solver_post),
    "dataplane": Suite(
        targets=("bm_dataplane",), runs=(("bm_dataplane", "^BM_DataPlane"),),
        env={}, repetitions=3, baseline="bench/BENCH_dataplane_baseline.json",
        gates=(floor("BM_DataPlane"),)),
    "serving": Suite(
        targets=("bm_dataplane",), runs=(("bm_dataplane", "^BM_Serving"),),
        env={}, repetitions=3, baseline="bench/BENCH_serving_baseline.json",
        gates=(floor("BM_Serving"),)),
    "obs": Suite(
        targets=("bm_obs",), runs=(("bm_obs", "^BM_Obs"),),
        env=MILP_NODE_BUDGET, repetitions=3,
        baseline="bench/BENCH_obs_baseline.json",
        gates=(floor("BM_Obs"), passive("BM_ObsOverheadGate"),
               # Paired tracing-on vs tracing-off wall time.
               ("max", "BM_ObsOverheadGate", "overhead_frac", 0.03))),
    "fault": Suite(
        targets=("bm_fault",), runs=(("bm_fault", "^BM_Fault"),),
        env=MILP_NODE_BUDGET, repetitions=3,
        baseline="bench/BENCH_fault_baseline.json",
        gates=(floor("BM_Fault"), passive("BM_FaultGate"),
               # Simulated times, deterministic under the pinned seed.
               ("rel", "BM_FaultRecoveryCycle", "detect_latency_s", 0.10),
               ("rel", "BM_FaultRecoveryCycle", "recovery_s", 0.10))),
    "overload": Suite(
        targets=("bm_overload",), runs=(("bm_overload", "^BM_Overload"),),
        env=MILP_NODE_BUDGET, repetitions=3,
        baseline="bench/BENCH_overload_baseline.json",
        gates=(floor("BM_Overload"), passive("BM_OverloadGate"),
               # The tiered flash crowd: exact per-tier accounting, and the
               # strict tier is never shed and keeps >= 99% attainment.
               ("min", "BM_OverloadTiered", "accounting_exact", 1.0),
               ("min", "BM_OverloadTiered", "tier0_attainment", 0.99),
               ("eq", "BM_OverloadTiered", "shed_tier0", 0.0))),
}


def load(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: bench schema version "
                         f"{report.get('version')!r} != {SCHEMA_VERSION}")
    return report


def values(report, bench, counter, path):
    """{benchmark: counter} over the rows named bench*: the *_mean aggregate
    of a repeated benchmark, else its plain iteration row."""
    plain, means = {}, {}
    for row in report.get("benchmarks", []):
        name = row.get("name", "")
        if not name.startswith(bench):
            continue
        if name.endswith("_mean"):
            means[name[:-len("_mean")]] = row
        elif row.get("run_type", "iteration") == "iteration":
            plain[name] = row
    rows = {**plain, **means}
    if not rows:
        raise ValueError(f"{path}: no {bench}* benchmarks")
    for name, row in rows.items():
        if counter not in row:
            raise ValueError(f"{path}: {name} has no {counter} counter")
    return {name: row[counter] for name, row in rows.items()}


def num(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def check(suite, cand_path, quick):
    cand, base = load(cand_path), load(suite.baseline)
    failed = False
    for kind, bench, counter, bound in suite.gates:
        got = values(cand, bench, counter, cand_path)
        floor_off = kind == "floor" and quick
        if kind in ("min", "max", "eq"):
            for name, v in sorted(got.items()):
                ok = {"min": v >= bound, "max": v <= bound,
                      "eq": v == bound}[kind]
                print(f"{name}.{counter}: {v:g} vs {kind} {bound:g} -> "
                      f"{'OK' if ok else 'VIOLATION'}")
                failed |= not ok
            continue
        ref = values(base, bench, counter, suite.baseline)
        if kind == "sum":
            label = f"{bench}* total ({len(got)} vs {len(ref)} cases)"
            got, ref = {label: sum(got.values())}, {label: sum(ref.values())}
        for name in sorted(ref):
            if name not in got:
                print(f"{name}: MISSING from candidate", file=sys.stderr)
                failed = True
                continue
            if floor_off:
                continue
            sign = -1 if kind == "floor" else 1
            limit = ref[name] * (1 + sign * bound)
            ok = got[name] >= limit if kind == "floor" else got[name] <= limit
            print(f"{name}.{counter}: candidate {num(got[name])} vs "
                  f"baseline {num(ref[name])}; limit {num(limit)} "
                  f"[{sign * 100 * bound:+.0f}%] -> "
                  f"{'OK' if ok else 'REGRESSION'}")
            failed |= not ok
        if floor_off:
            print(f"{bench}*.{counter}: floor off under --quick")
    if failed:
        print(f"Gate failed. If the change is intended, re-record with "
              f"scripts/bench.py SUITE --rebaseline and commit "
              f"{suite.baseline}.", file=sys.stderr)
    return 1 if failed else 0


def run(suite, out, quick):
    build = os.environ.get("BENCH_BUILD_DIR", "build-release")
    if not os.path.isdir(build):
        subprocess.run(["cmake", "-B", build, "-S", ".",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=subprocess.DEVNULL)
    if subprocess.run(["cmake", "--build", build, "-j",
                       str(os.cpu_count() or 4), "--target", *suite.targets],
                      stderr=subprocess.DEVNULL).returncode != 0:
        print("bench targets unavailable (Google Benchmark not installed?)",
              file=sys.stderr)
        return 3
    env = {**os.environ, **suite.env}
    args = []
    if quick:
        # google-benchmark >= 1.8 wants a unit suffix on min_time and
        # deprecates the bare double; older releases reject the suffix.
        probe = subprocess.run(
            [os.path.join(build, suite.runs[0][0]),
             "--benchmark_min_time=0.01s", "--benchmark_list_tests"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        args.append("--benchmark_min_time=0.01" +
                    ("s" if probe.returncode == 0 else ""))
    elif suite.repetitions > 1:
        args += [f"--benchmark_repetitions={suite.repetitions}",
                 "--benchmark_report_aggregates_only=true"]
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for binary, filt in suite.runs:
            path = os.path.join(tmp, binary + ".json")
            cmd = [os.path.join(build, binary), *args,
                   f"--benchmark_out={path}", "--benchmark_out_format=json"]
            if filt:
                cmd.append(f"--benchmark_filter={filt}")
            rc = subprocess.run(cmd, env=env).returncode
            if rc != 0:
                return rc
            with open(path) as f:
                reports.append((binary, json.load(f)))
    report = suite.post(build, env, reports, out) if suite.post \
        else reports[0][1]
    report["version"] = SCHEMA_VERSION
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out} ({len(report['benchmarks'])} benchmarks, "
          f"schema version {SCHEMA_VERSION})")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("out", nargs="?", help="report to write")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--rebaseline", action="store_true")
    ap.add_argument("--check", metavar="REPORT.json",
                    help="gate an existing report; run nothing")
    args = ap.parse_intermixed_args()
    if args.check and (args.out or args.rebaseline):
        ap.error("--check takes no OUT.json and no --rebaseline")
    # User paths are relative to the caller; the table's to the repo root.
    report = os.path.abspath(args.check or args.out or
                             os.path.join(REPO, f"BENCH_{args.suite}.json"))
    os.chdir(REPO)
    suite = SUITES[args.suite]
    try:
        if args.check:
            return check(suite, report, args.quick)
        rc = run(suite, report, args.quick)
        if rc != 0:
            return rc
        if args.rebaseline:
            shutil.copyfile(report, suite.baseline)
            print(f"rebaselined {suite.baseline} from {report}")
            return 0
        return check(suite, report, args.quick)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"bench.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
