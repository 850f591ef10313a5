"""Tests for distribution analysis, Pareto frontiers and reporting."""

import json

import numpy as np
import pytest

from repro.analysis import (
    ExperimentRecord,
    ParetoPoint,
    ascii_bars,
    ascii_series,
    format_table,
    mask_heatmap,
    pareto_frontier,
    per_matrix_sparsity,
    save_results,
    unit_zero_fractions,
    zero_fraction_cdf,
)
from repro.analysis.pareto import dominates


class TestDistribution:
    def test_per_matrix_sparsity(self):
        masks = [np.ones((4, 4), dtype=bool), np.zeros((2, 2), dtype=bool)]
        np.testing.assert_allclose(per_matrix_sparsity(masks), [0.0, 1.0])

    def test_unit_zero_fractions_blocks(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[:2, :2] = False  # one fully-zero 2x2 block
        fr = unit_zero_fractions(mask, (2, 2))
        assert sorted(fr) == [0.0, 0.0, 0.0, 1.0]

    def test_unit_zero_fractions_rows(self):
        mask = np.ones((2, 8), dtype=bool)
        mask[0, :4] = False
        fr = unit_zero_fractions(mask, (1, 4))
        assert sorted(fr) == [0.0, 0.0, 0.0, 1.0]

    def test_unit_zero_fractions_ragged(self):
        mask = np.ones((3, 5), dtype=bool)
        fr = unit_zero_fractions(mask, (2, 2))
        assert fr.shape == (6,)  # 2x3 grid with ragged edges

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            unit_zero_fractions(np.ones((2, 2), dtype=bool), (0, 2))
        with pytest.raises(ValueError):
            unit_zero_fractions(np.ones(4, dtype=bool), (1, 2))

    def test_cdf_monotone(self):
        rng = np.random.default_rng(0)
        fr = rng.random(100)
        x, cdf = zero_fraction_cdf(fr)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_cdf_empty(self):
        x, cdf = zero_fraction_cdf(np.array([]))
        assert np.all(cdf == 1.0)

    def test_fig6_tw_below_bw(self):
        """TW's 1×G units capture more fully-zero units than BW's square
        blocks on a row-structured EW mask (the Fig. 6 ordering).

        Real EW masks concentrate zeros along rows/columns (unimportant
        neurons); a 1×G unit lives inside one row and so goes fully zero
        with that row, while an 8×8 block mixes eight rows of different
        densities and almost never empties.
        """
        rng = np.random.default_rng(1)
        row_density = rng.random(128) ** 3  # heavy tail of near-empty rows
        mask = rng.random((128, 128)) < row_density[:, None]
        tw_fr = unit_zero_fractions(mask, (1, 64))
        bw_fr = unit_zero_fractions(mask, (8, 8))
        assert (tw_fr > 0.95).mean() > (bw_fr > 0.95).mean()

    def test_heatmap_shape_and_range(self):
        rng = np.random.default_rng(2)
        mask = rng.random((64, 96)) < 0.25
        hm = mask_heatmap(mask, grid=8)
        assert hm.shape == (8, 8)
        assert 0.0 <= hm.min() and hm.max() <= 1.0
        assert hm.mean() == pytest.approx(0.25, abs=0.05)

    def test_heatmap_small_mask(self):
        hm = mask_heatmap(np.ones((4, 4), dtype=bool), grid=16)
        assert hm.shape == (4, 4)

    def test_heatmap_validation(self):
        with pytest.raises(ValueError):
            mask_heatmap(np.ones(4, dtype=bool))
        with pytest.raises(ValueError):
            mask_heatmap(np.ones((4, 4), dtype=bool), grid=0)


class TestPareto:
    def test_dominates(self):
        a = ParetoPoint(0.9, 2.0)
        b = ParetoPoint(0.8, 1.0)
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, a)

    def test_frontier_filters_dominated(self):
        pts = [
            ParetoPoint(0.90, 2.0, "tw"),
            ParetoPoint(0.95, 1.0, "dense"),
            ParetoPoint(0.85, 0.5, "bw"),   # dominated by tw
            ParetoPoint(0.92, 0.7, "ew"),   # dominated by dense
        ]
        frontier = pareto_frontier(pts)
        labels = [p.label for p in frontier]
        assert labels == ["dense", "tw"]

    def test_frontier_keeps_incomparable(self):
        pts = [ParetoPoint(0.9, 1.0), ParetoPoint(0.8, 2.0)]
        assert len(pareto_frontier(pts)) == 2

    def test_frontier_empty(self):
        assert pareto_frontier([]) == []

    def test_as_dict(self):
        d = ParetoPoint(0.9, 2.0, "tw").as_dict()
        assert d == {"accuracy": 0.9, "speedup": 2.0, "label": "tw"}


class TestReporting:
    def test_record_roundtrip(self, tmp_path):
        rec = ExperimentRecord(
            experiment="fig9b",
            description="latency vs sparsity",
            series={"sparsity": [0.0, 0.5], "speedup": [0.8, 1.4]},
            paper_anchors={"s75": 2.26},
        )
        path = save_results(rec, tmp_path)
        assert path.name == "fig9b.json"
        loaded = json.loads(path.read_text())
        assert loaded["series"]["speedup"] == [0.8, 1.4]
        assert loaded["paper_anchors"]["s75"] == 2.26

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.34567], [10, 0.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.346" in out

    def test_ascii_series(self):
        out = ascii_series([0.0, 0.5], [1.0, 2.0], width=10, label="speedup")
        assert "speedup" in out
        assert "##########" in out  # the max bar is full width

    def test_ascii_series_validation(self):
        with pytest.raises(ValueError):
            ascii_series([1.0], [])

    def test_ascii_bars(self):
        out = ascii_bars({"dense": 1.0, "tw": 2.0})
        assert "dense" in out and "tw" in out

    def test_ascii_empty(self):
        assert "(empty)" in ascii_bars({})
        assert "(empty)" in ascii_series([], [], label="x")
