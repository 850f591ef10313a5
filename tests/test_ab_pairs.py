"""The alternating-pairs summary of ``benchmarks/ab_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "sat_rps", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
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
    # parent spreads 40/780 and 2/102, inside both bounds
    assert (sat["verdict"], rss["verdict"]) == ("within", "within")


def test_one_pair_is_its_own_spread():
    rows = ab_pairs.summarize([({"sat_rps": 5.0}, {"sat_rps": 4.0})], METRICS)
    assert rows[0]["parent"] == (5.0, 5.0, 5.0)
    assert (rows[0]["wins"], rows[0]["resolved"]) == (0, False)


def test_verdict_against_bound():
    # median 100, q1-q3 spread 10%: resolvable at a 25% bound
    parent = [90.0, 95.0, 100.0, 105.0, 110.0]

    def shifted(median):
        return [v - 100.0 + median for v in parent]

    assert ab_pairs.verdict(parent, shifted(80.0), True, 0.25) == "within"  # -20%
    assert ab_pairs.verdict(parent, shifted(74.0), True, 0.25) == "worse"  # -26%
    assert ab_pairs.verdict(parent, shifted(300.0), True, 0.25) == "within"  # a gain
    # lower is better: a 26% rise is worse, a 26% fall is not
    assert ab_pairs.verdict(parent, shifted(126.0), False, 0.25) == "worse"
    assert ab_pairs.verdict(parent, shifted(74.0), False, 0.25) == "within"
    # a 10% spread cannot resolve a 5% bound, whatever the change reads ...
    assert ab_pairs.verdict(parent, shifted(50.0), True, 0.05) == "unresolved"
    assert ab_pairs.verdict(parent, shifted(100.0), True, 0.05) == "unresolved"
    # ... unless every change run beats every parent run
    assert ab_pairs.verdict(parent, [111.0, 112.0, 113.0], True, 0.05) == "within"
    assert ab_pairs.verdict(parent, [80.0, 85.0, 89.0], False, 0.05) == "within"
    # the http_small speedup_vs_dense case: q1-q3 12.74-14.05 spreads ~9.8%
    # of its median, inside a 0.15 bound but not a 0.05 one
    anchor = [12.23, 12.74, 13.40, 14.05, 15.06]
    assert ab_pairs.verdict(anchor, [13.0] * 5, True, 0.15) == "within"
    assert ab_pairs.verdict(anchor, [13.0] * 5, True, 0.05) == "unresolved"


def test_worse_rows_are_flagged():
    pairs = [({"sat_rps": p}, {"sat_rps": c})
             for p, c in zip([100.0, 101.0, 99.0], [60.0, 61.0, 59.0])]
    (row,) = ab_pairs.summarize(pairs, METRICS)
    assert row["verdict"] == "worse"
    assert row["wins"] == 0
    assert ab_pairs.format_rows("w", [row])[1].endswith("| worse")


def test_seed_specs():
    assert ab_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert ab_pairs.parse_seeds("1,3,7-8") == [1, 3, 7, 8]
