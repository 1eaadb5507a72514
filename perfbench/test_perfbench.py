"""Unit tests of the benchmark's arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):

    def test_p90_of_100_samples_has_10_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.samples_beyond(100, 90), 10)

    def test_rank_is_not_pushed_up_by_float_error(self):
        # 90 / 100 * 100 == 90.00000000000001 in binary floating point.
        self.assertEqual(stats.rank(100, 90), 90)
        self.assertEqual(stats.rank(1000, 99.9), 999)

    def test_fewer_than_100_samples_leave_fewer_than_10_beyond_p90(self):
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(34, 90), 3)
        self.assertEqual(stats.samples_beyond(16, 90), 1)

    def test_percentile_is_a_measured_value_and_order_free(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 90), 5.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)

    def test_rank_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.rank(0, 90)
        with self.assertRaises(ValueError):
            stats.rank(10, 0)

    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))


def span(name, start, end, parent=None, phase=layers.CALL, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "phase": phase, "counts": counts}


class SelfTimeTest(unittest.TestCase):

    def test_self_time_is_span_minus_children(self):
        spans = [span("match", 0.0, 10.0),
                 span("extract", 1.0, 4.0, parent=0),
                 span("search", 5.0, 9.0, parent=0),
                 span("predict.x", 6.0, 7.0, parent=2)]
        self.assertEqual(layers.self_times(spans), [3.0, 3.0, 3.0, 1.0])
        # Self times of one tree add up to its root's duration.
        self.assertEqual(sum(layers.self_times(spans)), 10.0)

    def test_aggregate_sums_by_name_within_a_phase(self):
        spans = [span("match", 0.0, 4.0),
                 span("search", 1.0, 2.0, parent=0, nodes_expanded=7),
                 span("match", 5.0, 8.0),
                 span("search", 6.0, 8.0, parent=2, nodes_expanded=5),
                 span("fit.x", 9.0, 12.0, phase=layers.SETUP)]
        totals = layers.aggregate(spans, layers.CALL)
        self.assertEqual(totals["match"]["self_s"], 4.0)
        self.assertEqual(totals["match"]["calls"], 2)
        self.assertEqual(totals["search"]["self_s"], 3.0)
        self.assertEqual(totals["search"]["counts"],
                         {"nodes_expanded": 12})
        self.assertNotIn("fit.x", totals)
        merged = {}
        layers.merge(merged, totals)
        layers.merge(merged, totals)
        self.assertEqual(merged["search"]["counts"],
                         {"nodes_expanded": 24})

    def test_wrapped_methods_nest_and_super_calls_fold(self):
        ticks = iter(range(100))
        tracer = layers.Tracer(clock=lambda: float(next(ticks)))

        class Base:
            def work(self, n):
                return n

        class Child(Base):
            def work(self, n):
                return super().work(n) + 1

        class Outer:
            def run(self, learner):
                return learner.work(3)

        for cls in (Base, Child):
            tracer.wrap_method(cls, "work", lambda args: "work",
                               lambda args, result: {"rows": args[1]})
        tracer.wrap_method(Outer, "run", lambda args: "run")
        tracer.phase = layers.CALL
        self.assertEqual(Outer().run(Child()), 4)
        tracer.uninstall()
        names = [s["name"] for s in tracer.closed_spans()]
        self.assertEqual(names, ["run", "work"])
        totals = layers.aggregate(tracer.closed_spans(), layers.CALL)
        self.assertEqual(totals["work"]["counts"], {"rows": 3})
        self.assertEqual(totals["run"]["self_s"] + totals["work"]["self_s"],
                         3.0)
        self.assertEqual(Child().work(1), 2)  # restored, nothing recorded
        self.assertEqual(len(tracer.closed_spans()), 2)


if __name__ == "__main__":
    unittest.main()
