"""Unit tests of the benchmark's oracle, span attribution and catalogue.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` or
``python3 -m unittest discover -s perfbench -p 'test_*.py'``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from attribution import Span, attribute  # noqa: E402
from oracle import CigarError, cigar_score, gotoh_score  # noqa: E402


def _gotoh_cell_by_cell(a: str, b: str, x: int = 4, o: int = 6, e: int = 2) -> int:
    """A second, cell-at-a-time Gotoh used only to cross-check the rows."""
    inf = 10**9
    n, m = len(a), len(b)
    h = [[inf] * (m + 1) for _ in range(n + 1)]
    d = [[inf] * (m + 1) for _ in range(n + 1)]
    ins = [[inf] * (m + 1) for _ in range(n + 1)]
    h[0][0] = 0
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 and j == 0:
                continue
            if i > 0:
                d[i][j] = min(h[i - 1][j] + o + e, d[i - 1][j] + e)
            if j > 0:
                ins[i][j] = min(h[i][j - 1] + o + e, ins[i][j - 1] + e)
            best = min(d[i][j], ins[i][j])
            if i > 0 and j > 0:
                best = min(best, h[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else x))
            h[i][j] = best
    return h[n][m]


class GotohScoreTest(unittest.TestCase):
    def test_hand_worked_cases(self) -> None:
        cases = [
            ("", "", 0),
            ("ACGT", "ACGT", 0),
            ("ACGT", "ACCT", 4),  # one mismatch
            ("ACGT", "ACGGT", 8),  # one inserted base: 6 + 2
            ("ACGTAC", "ACAC", 10),  # one 2-base deletion: 6 + 2*2
            ("", "ACG", 12),  # a 3-base gap against nothing
            ("ACG", "", 12),
            ("AAAAAAAA", "AAAA", 14),  # one 4-base gap, not two 2-base ones
            ("AC", "CA", 8),  # two mismatches beat a deletion + an insertion
            ("ACGTACGT", "CGTACGTA", 16),  # a shift: two gaps beat 8 mismatches
            ("AAAA", "TTTT", 16),
        ]
        for pattern, text, expected in cases:
            with self.subTest(pattern=pattern, text=text):
                self.assertEqual(gotoh_score(pattern, text), expected)

    def test_agrees_with_cell_by_cell_programme(self) -> None:
        rng = random.Random(7)
        for _ in range(200):
            a = "".join(rng.choices("ACGT", k=rng.randrange(0, 14)))
            b = "".join(rng.choices("ACGT", k=rng.randrange(0, 14)))
            self.assertEqual(gotoh_score(a, b), _gotoh_cell_by_cell(a, b), (a, b))


class CigarScoreTest(unittest.TestCase):
    def test_rescores_valid_cigars(self) -> None:
        cases = [
            ("ACGT", "ACGT", "4M", 0),
            ("ACGTAC", "ACGAAC", "3M1X2M", 4),
            ("ACGTAC", "ACAC", "2M2D2M", 10),
            ("ACGT", "ACGGT", "3M1I1M", 8),
            ("AC", "CA", "2X", 8),
            ("A", "C", "1I1D", 16),  # two adjacent gaps open twice
            ("", "", "", 0),
            ("", "AC", "2I", 10),
        ]
        for pattern, text, cigar, expected in cases:
            with self.subTest(cigar=cigar):
                self.assertEqual(cigar_score(pattern, text, cigar), expected)

    def test_rejects_cigars_that_do_not_fit(self) -> None:
        cases = [
            ("ACGT", "ACGT", "2M"),  # stops early
            ("ACGT", "ACGT", "5M"),  # runs past the end
            ("ACGT", "ACCT", "4M"),  # M over a mismatch
            ("ACGT", "ACGT", "3M1X"),  # X over a match
            ("ACGT", "ACGT", "4Q"),  # unknown operation
            ("ACGT", "ACGT", "0M4M"),  # empty run
            ("AC", "A", "1M2D"),  # deletes past the pattern
        ]
        for pattern, text, cigar in cases:
            with self.subTest(cigar=cigar):
                with self.assertRaises(CigarError):
                    cigar_score(pattern, text, cigar)


class AttributionTest(unittest.TestCase):
    def test_nested_spans_sum_to_root(self) -> None:
        spans = [
            Span(1, "root", "trace", 0.0, 10.0, None),
            Span(2, "main", "cli", 1.0, 9.0, 1),
            Span(3, "parse", "seqio", 1.5, 2.5, 2),
            Span(4, "batch", "engine", 3.0, 8.0, 2),
            Span(5, "chunk", "align", 3.5, 7.0, 4),
        ]
        own = attribute(spans)
        self.assertAlmostEqual(own["cli"], 8.0 - 1.0 - 5.0)
        self.assertAlmostEqual(own["seqio"], 1.0)
        self.assertAlmostEqual(own["engine"], 1.5)
        self.assertAlmostEqual(own["align"], 3.5)
        self.assertAlmostEqual(own["trace"], 2.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_overlapping_children_are_counted_once(self) -> None:
        # An engine batch on a worker thread overlaps the event loop's
        # idle wait: the batch keeps the overlap, idle only the rest.
        spans = [
            Span(1, "session", "serve", 0.0, 10.0, None),
            Span(2, "batch", "engine", 2.0, 6.0, 1, priority=0),
            Span(3, "idle", "serve.idle", 1.0, 4.0, 1, priority=1),
            Span(4, "idle", "serve.idle", 5.0, 9.0, 1, priority=1),
        ]
        own = attribute(spans)
        self.assertAlmostEqual(own["engine"], 4.0)
        self.assertAlmostEqual(own["serve.idle"], 1.0 + 3.0)
        self.assertAlmostEqual(own["serve"], 2.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_print(self) -> None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="ascii") as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in doc[key]}
            self.assertEqual(listed, catalogue, key)


if __name__ == "__main__":
    unittest.main()
