#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py (ctest label: tools).

Stdlib only, same as the script under test: the perf lane must not need a
pip install, and neither may its tests. Each test builds a tiny baseline /
current directory pair under a tempdir and drives main() through the real
argv path, so exit codes — the CI contract — are what is asserted.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_diff", os.path.join(_HERE, "bench_diff.py"))
bench_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_diff)


def point(label, events=1000, ns=100.0):
    return {
        "label": label,
        "scheduler": label.split("/")[0],
        "seed": 42,
        "events": events,
        "cpu_seconds": events * ns / 1e9,
        "events_per_sec": 1e9 / ns if ns else 0.0,
        "ns_per_event": ns,
    }


def write_bench(dirpath, name, points):
    with open(os.path.join(dirpath, f"BENCH_{name}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"bench": name, "points": points}, f)


class BenchDiffMain(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self._tmp.name, "baselines")
        self.cur = os.path.join(self._tmp.name, "current")
        os.mkdir(self.base)
        os.mkdir(self.cur)

    def tearDown(self):
        self._tmp.cleanup()

    def run_main(self, *extra):
        argv = ["bench_diff.py", "--current", self.cur,
                "--baseline", self.base, *extra]
        out, err = io.StringIO(), io.StringIO()
        old = sys.argv
        sys.argv = argv
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = bench_diff.main()
        finally:
            sys.argv = old
        return code, out.getvalue() + err.getvalue()

    def test_identical_runs_pass(self):
        pts = [point("Credit/a"), point("Credit/b", ns=200.0)]
        write_bench(self.base, "engine", pts)
        write_bench(self.cur, "engine", pts)
        code, out = self.run_main()
        self.assertEqual(code, 0, out)
        self.assertIn("bench_diff: ok", out)

    def test_uniform_machine_factor_cancels(self):
        # Everything 2x slower: a slower runner, not a regression.
        write_bench(self.base, "engine",
                    [point("a", ns=100.0), point("b", ns=200.0)])
        write_bench(self.base, "other",
                    [point("x", ns=50.0), point("y", ns=80.0)])
        write_bench(self.cur, "engine",
                    [point("a", ns=200.0), point("b", ns=400.0)])
        write_bench(self.cur, "other",
                    [point("x", ns=100.0), point("y", ns=160.0)])
        code, out = self.run_main()
        self.assertEqual(code, 0, out)

    def test_localized_regression_fails(self):
        # One bench 2x slower while three others hold still: the median
        # machine factor stays ~1 and the hot-path slowdown stands out.
        for n in ("a", "b", "c"):
            write_bench(self.base, n, [point("p1"), point("p2")])
            write_bench(self.cur, n, [point("p1"), point("p2")])
        write_bench(self.base, "hot", [point("p1"), point("p2")])
        write_bench(self.cur, "hot",
                    [point("p1", ns=200.0), point("p2", ns=200.0)])
        code, out = self.run_main()
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL hot", out)

    def test_absolute_mode_skips_normalization(self):
        # Uniform 2x slowdown FAILS under --absolute (same-machine gate).
        write_bench(self.base, "engine", [point("a"), point("b")])
        write_bench(self.cur, "engine",
                    [point("a", ns=200.0), point("b", ns=200.0)])
        code, out = self.run_main("--absolute")
        self.assertEqual(code, 1, out)

    def test_dropped_label_fails(self):
        write_bench(self.base, "engine", [point("a"), point("b")])
        write_bench(self.cur, "engine", [point("a")])
        code, out = self.run_main()
        self.assertEqual(code, 1, out)
        self.assertIn("missing from current run", out)

    def test_new_label_is_skipped_not_failed(self):
        write_bench(self.base, "engine", [point("a")])
        write_bench(self.cur, "engine", [point("a"), point("brand_new")])
        code, out = self.run_main()
        self.assertEqual(code, 0, out)
        self.assertIn("no baseline yet (skipped)", out)

    def test_event_count_drift_fails(self):
        # Same scenario + seed must simulate the same events: determinism
        # bug, not perf delta.
        write_bench(self.base, "engine", [point("a", events=1000)])
        write_bench(self.cur, "engine", [point("a", events=1001)])
        code, out = self.run_main()
        self.assertEqual(code, 1, out)
        self.assertIn("events drifted", out)

    def test_missing_current_emission_fails(self):
        write_bench(self.base, "engine", [point("a")])
        code, out = self.run_main()
        self.assertEqual(code, 1, out)
        self.assertIn("did the bench binary run?", out)

    def test_emission_without_committed_baseline_fails(self):
        # The new-bench gate: an emission with no baseline must fail the
        # run, not ride unguarded.
        write_bench(self.base, "engine", [point("a")])
        write_bench(self.cur, "engine", [point("a")])
        write_bench(self.cur, "newbench", [point("x")])
        code, out = self.run_main()
        self.assertEqual(code, 1, out)
        self.assertIn("no committed baseline", out)
        self.assertIn("newbench", out)

    def test_only_filter_restricts_comparison(self):
        write_bench(self.base, "engine", [point("a")])
        write_bench(self.base, "hot", [point("p", ns=100.0)])
        write_bench(self.cur, "engine", [point("a")])
        write_bench(self.cur, "hot", [point("p", ns=500.0)])
        code, out = self.run_main("--only", "engine", "--absolute")
        self.assertEqual(code, 0, out)
        self.assertNotIn("hot", out.replace("threshold", ""))

    def test_only_filter_exempts_unlisted_baselineless_emission(self):
        write_bench(self.base, "engine", [point("a")])
        write_bench(self.cur, "engine", [point("a")])
        write_bench(self.cur, "newbench", [point("x")])
        code, out = self.run_main("--only", "engine")
        self.assertEqual(code, 0, out)

    def test_no_baselines_at_all_is_usage_error(self):
        code, out = self.run_main()
        self.assertEqual(code, 2, out)
        self.assertIn("no baselines", out)

    def test_threshold_gates_geomean(self):
        # +10% is inside the default 15% but outside a 5% threshold.
        write_bench(self.base, "engine", [point("a"), point("b")])
        write_bench(self.cur, "engine",
                    [point("a", ns=110.0), point("b", ns=110.0)])
        code_ok, _ = self.run_main("--absolute")
        self.assertEqual(code_ok, 0)
        code_tight, out = self.run_main("--absolute", "--threshold", "0.05")
        self.assertEqual(code_tight, 1, out)


class BenchDiffHelpers(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(bench_diff.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(bench_diff.geomean([1.0]), 1.0)

    def test_load_points_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            write_bench(d, "engine", [point("a"), point("b")])
            name, pts = bench_diff.load_points(
                os.path.join(d, "BENCH_engine.json"))
        self.assertEqual(name, "engine")
        self.assertEqual(sorted(pts), ["a", "b"])
        self.assertEqual(pts["a"]["events"], 1000)


if __name__ == "__main__":
    unittest.main()
