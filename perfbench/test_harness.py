"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py      # or
    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of the checkout. The arithmetic tests take well under a
second; the two end-to-end tests run the real harness on spectrum-large
with no minimum time (about 30 s on a 2-core machine).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402

ROOT = os.path.dirname(HERE)


def span(id, name, parent, start, end, thread=1, counts=None, pass_id=1):
    return Span(id=id, name=name, parent=parent, pass_id=pass_id, thread=thread,
                start=start, end=end, counts=counts or {})


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_keeps_gaps(self):
        self.assertEqual(union_length([(3, 8), (1, 5), (9, 10)]), 8)
        self.assertEqual(union_length([(0, 2), (2, 3)]), 3)
        self.assertEqual(union_length([]), 0)

    def test_children_from_two_threads_overlap_once(self):
        spans = [
            span(1, "main", None, 0.0, 10.0),
            span(2, "work", 1, 1.0, 5.0, thread=2),
            span(3, "work", 1, 3.0, 8.0, thread=3),
            span(4, "inner", 2, 2.0, 4.0, thread=2),  # grandchild: not the root's
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 7.0)  # children cover [1, 8]
        self.assertAlmostEqual(selfs[2], 4.0 - 2.0)
        self.assertAlmostEqual(selfs[3], 5.0)
        self.assertAlmostEqual(selfs[4], 2.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [span(1, "main", None, 0.0, 4.0), span(2, "work", 1, 3.0, 6.0, thread=2)]
        self.assertAlmostEqual(self_times(spans)[1], 3.0)


class TracerTest(unittest.TestCase):
    """Spans opened in worker threads take the open root span as parent."""

    def setUp(self):
        module = types.ModuleType("epscap.benchtest")

        def work(n):
            return n

        def main(argv):
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(module.work(2))) for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            return module.work(len(results))

        module.work, module.main = work, main
        self.alias = types.ModuleType("epscap.benchalias")
        self.alias.work = work  # a second module binding the same function
        sys.modules["epscap.benchtest"] = self.module = module
        sys.modules["epscap.benchalias"] = self.alias

    def tearDown(self):
        del sys.modules["epscap.benchtest"], sys.modules["epscap.benchalias"]

    def test_thread_spans_and_counts(self):
        tracer = Tracer(
            [("epscap.benchtest", "main", None),
             ("epscap.benchtest", "work", lambda args, result: {"n": args["n"]})],
            root="epscap.benchtest.main",
        )
        tracer.pass_id = 7
        tracer.install()
        self.assertEqual(tracer.wrapped, ["epscap.benchalias.work", "epscap.benchtest.main",
                                          "epscap.benchtest.work"])
        try:
            self.assertEqual(self.module.main([]), 2)
        finally:
            tracer.uninstall()
        self.assertEqual(self.alias.work.__name__, "work")  # restored
        (root,) = [s for s in tracer.spans if s.name == "epscap.benchtest.main"]
        work = [s for s in tracer.spans if s.name == "epscap.benchtest.work"]
        self.assertEqual(len(work), 3)
        self.assertTrue(all(s.parent == root.id for s in work))
        self.assertGreaterEqual(len({s.thread for s in work}), 2)
        self.assertEqual(sorted(s.counts["n"] for s in work), [2, 2, 2])
        self.assertTrue(all(s.pass_id == 7 for s in tracer.spans))


class LayerMetricsTest(unittest.TestCase):
    def _pass(self, pass_id, scale, clipped):
        build = "epscap.spectrum.build_spectrum"
        return [
            span(1, "epscap.cli.main", None, 0.0, 10.0 * scale, pass_id=pass_id,
                 counts={"cli.calls": 1}),
            span(2, build, 1, 1.0 * scale, 5.0 * scale, pass_id=pass_id,
                 counts={"spectrum.builds": 1, "spectrum.clipped": clipped}),
            span(3, "epscap.spectrum.compute_spectrum", 2, 2.0 * scale, 4.0 * scale,
                 pass_id=pass_id),
        ]

    def test_medians_counts_and_overhead(self):
        passes = {1: self._pass(1, 1.0, 9), 2: self._pass(2, 3.0, 9), 3: self._pass(3, 2.0, 9)}
        metrics, differing = layers.layer_metrics(passes, [10.0, 30.0, 20.0], [19.0, 18.0])
        self.assertEqual(set(metrics), set(layers.UNITS))
        self.assertAlmostEqual(metrics["spectrum.build_s"], 8.0)  # median of 4, 12, 8
        self.assertAlmostEqual(metrics["spectrum.eigensolve_s"], 4.0)
        self.assertAlmostEqual(metrics["cli.self_s"], 12.0)  # median of 6, 18, 12
        self.assertEqual(metrics["spectrum.clipped"], 9)
        self.assertEqual(metrics["cli.calls"], 1)
        self.assertEqual(metrics["geometry.pack_accept_ratio"], 0.0)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 20.0 - 18.5)
        self.assertEqual(differing, [])

    def test_differing_count_is_named(self):
        passes = {1: self._pass(1, 1.0, 9), 2: self._pass(2, 1.0, 8)}
        _, differing = layers.layer_metrics(passes, [1.0], [1.0])
        self.assertEqual(differing, ["spectrum.clipped"])

    def test_benchmark_json_lists_every_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.UNITS)


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "spectrum-large",
         "--seed", "3", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class EndToEndTest(unittest.TestCase):
    def test_untraced_reports_medians_with_pass_counts(self):
        last, table = run_bench("--trace", "0")
        self.assertTrue(last["correct"])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        with open(os.path.join(ROOT, ".perfbench_work",
                               "result-spectrum-large-seed3-trace0.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        walls = [p["wall_s"] for p in result["passes"]]
        self.assertGreaterEqual(len(walls), 3)
        self.assertEqual(last["metrics"]["pass_p50_s"]["value"], statistics.median(walls))
        # four calls per pass, one warm-up pass, six setup interpreters
        self.assertEqual(last["attempted"], 4 * (len(walls) + 1) + 6)
        row = next(line for line in table if line.startswith("pass_p50_s "))
        self.assertTrue(row.endswith(f"n={len(walls)}"))

    def test_traced_run_flags_a_count_that_differs_from_the_last_run(self):
        first, _ = run_bench("--trace", "1")
        self.assertTrue(first["correct"])
        path = os.path.join(ROOT, ".perfbench_work", "result-spectrum-large-seed3-trace1.json")
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        self.assertEqual(first["metrics"]["spectrum.builds"]["value"], 3)
        result["layers"]["spectrum.clipped"] += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        second, table = run_bench("--trace", "1")
        self.assertFalse(second["correct"])
        flagged = [line for line in table if line.startswith("# FAILED")]
        self.assertEqual(len(flagged), 1)
        self.assertIn("spectrum.clipped", flagged[0])


if __name__ == "__main__":
    unittest.main()
