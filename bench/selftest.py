"""Self-test of the benchmark's correctness gate and tracer.

    python3 bench/selftest.py

Checks that a wrong expected value and an exception are counted as failures,
that cross-sweep's wall time is the whole sweep's, that a traced run returns
the same values as an untraced run, that the work counters repeat exactly
between two traced runs, and that the tracer leaves the package as it found
it.
"""

from __future__ import annotations

import os
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
# cli.main would otherwise load and rewrite a memo file there.
os.environ.pop("KRON_CACHE_DIR", None)

from kronquiver import cli, engine, lattice, linalg, symfunc  # noqa: E402
from kronquiver.partitions import Partition  # noqa: E402

import workloads  # noqa: E402
from run import Tally  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tally(records):
    tally = Tally()
    tally.add_round({"rss_mb": 0.0, "records": [
        [r.label, r.seconds, r.error, r.value, r.parts] for r in records]})
    return tally


def _sample_ops():
    rows = engine._cone(3).row_vectors()
    return [
        workloads._coeff_op("5,4,3", "4,3,2,2,1", "9,3", 5, 2),
        workloads._coeff_op("4,3,2,1", "3,3,2,2", "6,4", 4),
        workloads._truncated_op(*workloads.TRUNCATED[0]),
        workloads._oracle_op(Partition((9, 5, 4)), Partition((6, 6, 3, 3)), Partition((12, 6))),
        workloads._irredundancy_op(rows, 0),
        workloads._diagnose_op(Partition((3, 1)), Partition((2, 2))),
    ]


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        right = workloads._coeff_op("5,4,3", "4,3,2,2,1", "9,3", 5, 2)
        wrong = workloads._coeff_op("5,4,3", "4,3,2,2,1", "9,3", 5, 3)
        wrong_truncated = workloads._truncated_op("3,3,2,1", "3,2,2,2", "s[9]")
        tally = _tally(workloads.run_ops([right, wrong, wrong_truncated]))
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertIn("expected 3", tally.errors[0])

    def test_exception_is_a_failure(self):
        def boom():
            raise ValueError("bad input")
        tally = _tally(workloads.run_ops([workloads.Op("raises", boom, lambda r: None)]))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_failed_suite_check_fails_every_triple(self):
        record = workloads.Record("sweep", 1.0, "cases=3", "{}", [(0.1, None)] * 3)
        self.assertEqual(_tally([record]).failed, 3)

    def test_suite_wall_time_is_the_whole_call(self):
        # Work the suite does outside its timed triples still counts.
        record = workloads.Record("sweep", 2.0, None, "{}", [(0.1, None)] * 4)
        tally = _tally([record])
        self.assertEqual((tally.wall_s, len(tally.latencies), tally.attempted), (2.0, 4, 4))

    def test_sweep_without_one_timed_triple_per_case_is_a_failure(self):
        report = engine.CrossValidationReport(cases=workloads.CROSS_CASES,
                                              agreements=workloads.CROSS_CASES)
        saved = engine.cross_validate
        engine.cross_validate = lambda *args, **kwargs: report
        try:
            records = workloads.run_ops(workloads.cross_sweep(0))
        finally:
            engine.cross_validate = saved
        tally = _tally(records)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("0 timed triples", tally.errors[0])


class TracedRun(unittest.TestCase):
    def test_traced_values_match_untraced(self):
        plain = workloads.run_ops(_sample_ops())
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.run_ops(_sample_ops())
        finally:
            tracer.uninstall()
        self.assertEqual([r.value for r in traced], [r.value for r in plain])
        self.assertEqual([r.error for r in plain], [None] * len(plain))
        self.assertGreater(tracer.calls["cli.main"], 0)
        self.assertGreater(tracer.calls["linalg.propagate_box.node"], 0)

    def test_work_counters_repeat(self):
        query = engine.KroneckerQuery.create(
            Partition((5, 5, 5, 5)), Partition((5, 5, 5, 5)), Partition((10, 10)), 4)
        counters = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                self.assertEqual(engine.kronecker(query, "polytope").g, 1)
            finally:
                tracer.uninstall()
            counters.append({key: tracer.calls[key] for key in (
                "linalg.propagate_box.node", "linalg.propagate_box.root",
                "lattice.count_points", "linalg.solve_lp")}
                | {"pruned": tracer.outcomes["linalg.propagate_box.pruned"],
                   "points": tracer.outcomes["lattice.points"]})
        self.assertEqual(counters[0], counters[1])
        self.assertGreater(counters[0]["linalg.propagate_box.node"], 0)
        self.assertEqual(counters[0]["lattice.count_points"], 2)
        print(f"\nwork counters of (5,5,5,5)^2/(10,10) l=4 by polytope: {counters[0]}")

    def test_uninstall_restores_the_package(self):
        originals = (linalg.propagate_box, lattice.count_points, engine.count_points,
                     engine.kronecker, symfunc.lr_coeff, cli.main, cli.enumerate_points)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(engine.count_points, originals[2])
        tracer.uninstall()
        self.assertEqual((linalg.propagate_box, lattice.count_points, engine.count_points,
                          engine.kronecker, symfunc.lr_coeff, cli.main, cli.enumerate_points),
                         originals)


if __name__ == "__main__":
    unittest.main()
