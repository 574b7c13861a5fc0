"""Tests of the benchmark's own rules. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

import metrics  # noqa: E402


def span(sid, parent, start, end, name="exec.probe", op=0):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "start": start, "end": end}


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 95.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(199), 90.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))

    def test_percentile_refuses_thin_tail(self):
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(199)), 95.0)
        values = list(range(1, 201))
        self.assertEqual(metrics.percentile(values, 95.0), 190)
        self.assertEqual(metrics.percentile(values, 50.0), 100)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, 0, 100, "join.ispmc"),
                 span(2, 1, 10, 40, "exec.build"),
                 span(3, 2, 20, 30, "index.build")]
        _, timed = metrics.self_times(spans)
        self.assertEqual(timed, {"join": 70, "exec": 20, "index": 10})

    def test_back_to_back_and_overlapping_children(self):
        spans = [span(1, 0, 0, 100, "server.execute"),
                 span(2, 1, 0, 50, "impala.frontend"),
                 span(3, 1, 50, 100, "exec.probe")]
        _, timed = metrics.self_times(spans)
        self.assertEqual(timed["server"], 0)
        spans = [span(1, 0, 0, 100, "join.spark"),
                 span(2, 1, 10, 60, "exec.build"),
                 span(3, 1, 40, 120, "exec.probe")]
        _, timed = metrics.self_times(spans)
        # Children cover [10, 100] of the parent once, clipped at its end.
        self.assertEqual(timed["join"], 10)

    def test_setup_and_timed_spans_are_kept_apart(self):
        spans = [span(1, 0, 0, 5, "data.generate", op=-1),
                 span(2, 0, 5, 9, "data.generate", op=3)]
        setup, timed = metrics.self_times(spans)
        self.assertEqual(setup, {"data": 5})
        self.assertEqual(timed, {"data": 4})

    def test_parse_spans(self):
        text = "1\t0\t-1\tdata.generate\t0\t5\n2\t1\t-1\tdfs.convert\t1\t2\n"
        spans = metrics.parse_spans(text)
        self.assertEqual(spans[1], span(2, 1, 1, 2, "dfs.convert", op=-1))


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("rows_per_s", "exec.build_ms", "trace.op_self_ms.exec",
                     "9lives", "a-b"):
            self.assertEqual(metrics.validate_name(name), name)

    def test_invalid_names(self):
        for name in ("", "a b", ".lead", "-lead", "x/y", "a" * 65, None):
            with self.assertRaises(ValueError):
                metrics.validate_name(name)


class RowsPerSecondTest(unittest.TestCase):
    def test_total_rows_over_total_wall(self):
        rounds = [{"rows": 10, "wall_s": 1.0}, {"rows": 10, "wall_s": 4.0}]
        # 20 rows in 5 s, not the mean of the per-round rates (6.25).
        self.assertEqual(metrics.rows_per_s(rounds), 4.0)

    def test_no_wall_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.rows_per_s([])


class ResultLineTest(unittest.TestCase):
    def test_round_trip(self):
        values = {"rows_per_s": (12345.678901234567, "rows/s"),
                  "setup_s": (0.8127, "s"), "ok_frac": (1.0, "ratio")}
        line = metrics.emit_result(True, 250, 0, values)
        parsed = metrics.parse_result(line)
        self.assertEqual(parsed["attempted"], 250)
        self.assertTrue(parsed["correct"])
        for name, (value, unit) in values.items():
            self.assertEqual(parsed["metrics"][name],
                             {"value": value, "unit": unit})

    def test_rejects_bad_lines(self):
        with self.assertRaises(ValueError):
            metrics.emit_result(True, 1, 0, {"x": (math.nan, "s")})
        with self.assertRaises(ValueError):
            metrics.emit_result(True, 1, 0, {"bad name": (1.0, "s")})
        extra = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                            "metrics": {}, "extra": 1})
        with self.assertRaises(ValueError):
            metrics.parse_result(extra)
        zero = json.dumps({"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}})
        with self.assertRaises(ValueError):
            metrics.parse_result(zero)


if __name__ == "__main__":
    unittest.main()
