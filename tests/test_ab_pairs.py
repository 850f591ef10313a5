"""The alternating-pairs summary of ``benchmarks/ab_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "sat_rps", "better": "higher"},
    {"name": "peak_rss_mb", "better": "lower"},
    {"name": "setup_s", "better": "lower"},
]


def _pairs():
    parent = [800.0, 760.0, 820.0, 700.0, 780.0]
    change = [1000.0, 990.0, 810.0, 1100.0, 1050.0]
    rss_p = [100.0, 101.0, 102.0, 103.0, 104.0]
    rss_c = [101.0, 100.0, 103.0, 102.0, 104.0]
    return [
        ({"sat_rps": p, "peak_rss_mb": rp}, {"sat_rps": c, "peak_rss_mb": rc})
        for p, c, rp, rc in zip(parent, change, rss_p, rss_c)
    ]


def test_summary_on_fixed_numbers():
    rows = {r["metric"]: r for r in ab_pairs.summarize(_pairs(), METRICS)}
    assert set(rows) == {"sat_rps", "peak_rss_mb"}  # setup_s is in no run

    sat = rows["sat_rps"]
    assert sat["parent"] == (780.0, 760.0, 800.0)
    assert sat["change"] == (1000.0, 990.0, 1050.0)
    assert (sat["wins"], sat["pairs"]) == (4, 5)  # 810 < 820 loses
    assert sat["delta_pct"] == pytest.approx(100.0 * 220.0 / 780.0)
    assert sat["resolved"] is True  # 220 > the parent's 40 spread

    rss = rows["peak_rss_mb"]  # lower is better: a win is a smaller value
    assert rss["parent"] == (102.0, 101.0, 103.0)
    assert rss["change"] == (102.0, 101.0, 103.0)
    assert (rss["wins"], rss["pairs"]) == (2, 5)
    assert rss["resolved"] is False


def test_one_pair_is_its_own_spread():
    rows = ab_pairs.summarize([({"sat_rps": 5.0}, {"sat_rps": 4.0})], METRICS)
    assert rows[0]["parent"] == (5.0, 5.0, 5.0)
    assert (rows[0]["wins"], rows[0]["resolved"]) == (0, False)


def test_seed_specs():
    assert ab_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert ab_pairs.parse_seeds("1,3,7-8") == [1, 3, 7, 8]
