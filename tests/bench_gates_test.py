#!/usr/bin/env python3
"""Gate tests for scripts/bench.py --check.

Every committed bench/BENCH_*_baseline.json must pass as its own candidate,
and one mutated copy per bound must fail it: exit 1 for a regression, exit 2
for a schema mismatch or a missing gated counter. Under --quick only the
items_per_second floors are off, so only the throughput mutations pass.
Run directly or through ctest (bench_gates_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PY = os.path.join(REPO, "scripts", "bench.py")
SUITES = ("solver", "dataplane", "serving", "obs", "fault", "overload")
FLOOR_SUITES = SUITES[1:]


def baseline(suite):
    with open(os.path.join(REPO, "bench", f"BENCH_{suite}_baseline.json")) as f:
        return json.load(f)


def rows(report, prefix):
    return [b for b in report["benchmarks"] if b["name"].startswith(prefix)]


def scaled(prefix, counter, factor):
    def mutate(report):
        for row in rows(report, prefix):
            row[counter] *= factor
    return mutate


def set_to(prefix, counter, value):
    def mutate(report):
        for row in rows(report, prefix):
            row[counter] = value
    return mutate


def dropped(prefix, counter):
    def mutate(report):
        for row in rows(report, prefix):
            row.pop(counter, None)
    return mutate


def throughput_cut(report):
    """items_per_second of the suite's first benchmark, -36%."""
    row = next(b for b in report["benchmarks"] if b["name"].endswith("_mean"))
    row["items_per_second"] *= 0.64


# (suite, label, mutation) that break exactly one bound each: exit 1.
REGRESSIONS = [
    ("solver", "pivot total +21%",
     scaled("BM_ResourceManagerMilp/", "lp_pivots", 1.21)),
    ("obs", "bit_identical 0", set_to("BM_ObsOverheadGate", "bit_identical", 0.0)),
    ("fault", "bit_identical 0", set_to("BM_FaultGate", "bit_identical", 0.0)),
    ("overload", "bit_identical 0",
     set_to("BM_OverloadGate", "bit_identical", 0.0)),
    ("obs", "overhead_frac 0.031",
     set_to("BM_ObsOverheadGate", "overhead_frac", 0.031)),
    ("fault", "detect_latency_s +11%",
     scaled("BM_FaultRecoveryCycle", "detect_latency_s", 1.11)),
    ("fault", "recovery_s +11%",
     scaled("BM_FaultRecoveryCycle", "recovery_s", 1.11)),
    ("overload", "accounting_exact 0",
     set_to("BM_OverloadTiered", "accounting_exact", 0.0)),
    ("overload", "tier0_attainment 0.989",
     set_to("BM_OverloadTiered", "tier0_attainment", 0.989)),
    ("overload", "shed_tier0 1", set_to("BM_OverloadTiered", "shed_tier0", 1.0)),
]
# The items_per_second floors: exit 1, but exit 0 under --quick.
THROUGHPUT = [(s, "items_per_second -36%", throughput_cut)
              for s in FLOOR_SUITES]
# One gated counter removed from every row that carries it: exit 2.
MISSING = [
    ("solver", "no lp_pivots", dropped("BM_ResourceManagerMilp/", "lp_pivots")),
    ("dataplane", "no items_per_second",
     dropped("BM_DataPlane", "items_per_second")),
    ("serving", "no items_per_second",
     dropped("BM_Serving", "items_per_second")),
    ("obs", "no overhead_frac", dropped("BM_ObsOverheadGate", "overhead_frac")),
    ("fault", "no detect_latency_s",
     dropped("BM_FaultRecoveryCycle", "detect_latency_s")),
    ("overload", "no accounting_exact",
     dropped("BM_OverloadTiered", "accounting_exact")),
]


def schema_2(report):
    report["version"] = 2


SCHEMA = [(s, "schema version 2", schema_2) for s in SUITES]


def cases():
    """Every mutated report: (suite, label, report, exit, exit under --quick)."""
    out = [(s, "baseline", baseline(s), 0, 0) for s in SUITES]
    for group, rc, quick_rc in ((REGRESSIONS, 1, 1), (THROUGHPUT, 1, 0),
                                (MISSING, 2, 2), (SCHEMA, 2, 2)):
        for suite, label, mutate in group:
            report = baseline(suite)
            mutate(report)
            out.append((suite, label, report, rc, quick_rc))
    return out


class BenchGates(unittest.TestCase):
    def check(self, suite, path, quick):
        cmd = [sys.executable, BENCH_PY, suite, "--check", path]
        if quick:
            cmd.append("--quick")
        return subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode

    def test_gates(self):
        with tempfile.TemporaryDirectory() as tmp:
            for i, (suite, label, report, rc, quick_rc) in enumerate(cases()):
                path = os.path.join(tmp, f"{i}_{suite}.json")
                with open(path, "w") as f:
                    json.dump(report, f)
                for quick, want in ((False, rc), (True, quick_rc)):
                    with self.subTest(suite=suite, mutation=label, quick=quick):
                        self.assertEqual(self.check(suite, path, quick), want)

    def test_every_baseline_is_gated(self):
        committed = sorted(f for f in os.listdir(os.path.join(REPO, "bench"))
                           if f.startswith("BENCH_") and
                           f.endswith("_baseline.json"))
        self.assertEqual(committed,
                         sorted(f"BENCH_{s}_baseline.json" for s in SUITES))


if __name__ == "__main__":
    unittest.main()
