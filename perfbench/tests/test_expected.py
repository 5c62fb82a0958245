"""Checks of the benchmark's recorded references and of its metric list.

The growth table in expected.json was recorded from the seed version of
the package.  Here its small ranks are recounted by a brute-force product
enumeration in the style of acceptance criterion 07, which shares nothing
with the pruned search in `enumerate_rank`, so the table is not merely
whatever the package printed.
"""

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from cuspcm import BundleTriple, CuspGeometry, SSeq, module_rank  # noqa: E402

import spans  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())
# (weights, largest rank recounted by brute force)
BRUTE_FORCE = [((1,), 6), ((2,), 5), ((1, 0), 4), ((1, 1, 0), 3)]


def bounded(length: int, cap: int):
    """Non-negative integer tuples of the given length with sum <= cap."""
    if length == 0:
        yield ()
        return
    for v in range(cap + 1):
        for rest in bounded(length - 1, cap - v):
            yield (v,) + rest


def canonical_aperiodic(e: tuple[int, ...], s: int) -> bool:
    n = len(e)
    rotations = [e[c:] + e[:c] for c in range(s, n, s)]
    return all(e < rot for rot in rotations)


def family_count(b: tuple[int, ...], rank: int) -> int:
    """Families (d, m) of the given rank: d >= 0 canonical and aperiodic,
    rank at a generic scalar equal to `rank`.  The coarse bound
    sum(d) <= rank/m + r*sum(b) is the one criterion 07 uses."""
    s = len(b)
    geom = CuspGeometry(s, b)
    count = 0
    for m in range(1, rank + 1):
        if rank % m:
            continue
        for r in range(1, rank // m + 1):
            for e in bounded(r * s, rank // m + r * sum(b)):
                if not canonical_aperiodic(e, s):
                    continue
                if module_rank(BundleTriple(SSeq(s, e), m, Fraction(3)), geom) == rank:
                    count += 1
    return count


class GrowthTable(unittest.TestCase):
    def test_small_ranks_match_brute_force(self):
        for b, top in BRUTE_FORCE:
            want = EXPECTED["growth_counts"][",".join(map(str, b))][:top]
            got = [family_count(b, rank) for rank in range(1, top + 1)]
            self.assertEqual(got, want, f"b={b}")


class MetricList(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_runner_reports(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        from_spans = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        self.assertEqual({k: per_layer[k] for k in from_spans}, from_spans)
        extra = set(per_layer) - set(from_spans)
        self.assertEqual(extra, {"cli.interpreter_s", "cli.import_s", "cli.records",
                                 "cli.error_records", "trace.overhead_ratio"})
        self.assertEqual(
            {m["name"] for m in bench["end_to_end"]},
            {"setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms", "latency_p75_ms"},
        )


if __name__ == "__main__":
    unittest.main()
