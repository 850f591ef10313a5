"""Tests for the global TW pruning step, apriori tuning, and the TEW overlay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import AprioriConfig, apriori_adjust, unit_ew_sparsity
from repro.core.masks import global_topk_keep_masks, overall_sparsity, validate_tw_mask
from repro.core.tew import TEWConfig, tew_overlay
from repro.core.tile_sparsity import (
    TWPruneConfig,
    split_stage_sparsity,
    tw_prune_step,
)


def rand_scores(rng, shapes):
    return [np.abs(rng.standard_normal(s)) for s in shapes]


class TestSplit:
    def test_multiplies_to_keep(self):
        for s in (0.0, 0.3, 0.75, 0.95):
            for split in (0.0, 0.3, 0.5, 1.0):
                sc, sr = split_stage_sparsity(s, split)
                assert (1 - sc) * (1 - sr) == pytest.approx(1 - s)

    def test_split_extremes(self):
        sc, sr = split_stage_sparsity(0.5, 0.0)
        assert sc == pytest.approx(0.0)  # no column pruning
        sc, sr = split_stage_sparsity(0.5, 1.0)
        assert sr == pytest.approx(0.0)  # no row pruning

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            split_stage_sparsity(1.0, 0.5)


class TestTWPruneStep:
    def test_achieves_target_sparsity(self):
        rng = np.random.default_rng(0)
        scores = rand_scores(rng, [(64, 96), (48, 128)])
        cfg = TWPruneConfig(granularity=16)
        for target in (0.25, 0.5, 0.75, 0.9):
            res = tw_prune_step(scores, target, cfg)
            assert res.achieved_sparsity == pytest.approx(target, abs=0.03)

    def test_masks_are_tw_shaped(self):
        rng = np.random.default_rng(1)
        scores = rand_scores(rng, [(32, 64)])
        res = tw_prune_step(scores, 0.6, TWPruneConfig(granularity=8))
        validate_tw_mask(res.masks[0], 8)

    def test_zero_sparsity_keeps_everything(self):
        rng = np.random.default_rng(2)
        scores = rand_scores(rng, [(16, 16)])
        res = tw_prune_step(scores, 0.0, TWPruneConfig(granularity=4))
        assert res.masks[0].all()
        assert res.achieved_sparsity == 0.0

    def test_high_scores_survive(self):
        """Columns with overwhelming scores must never be pruned."""
        rng = np.random.default_rng(3)
        s = np.abs(rng.standard_normal((16, 32))) * 0.01
        s[:, 5] = 100.0  # hugely important column
        res = tw_prune_step([s], 0.5, TWPruneConfig(granularity=8))
        assert res.col_keeps[0][5]

    def test_global_ranking_prefers_high_score_layer(self):
        """A layer with much higher scores should lose fewer columns."""
        rng = np.random.default_rng(4)
        lo = np.abs(rng.standard_normal((32, 64)))
        hi = lo * 50.0
        res = tw_prune_step([hi, lo.copy()], 0.5, TWPruneConfig(granularity=8))
        sp = res.per_matrix_sparsity()
        assert sp[0] < sp[1]

    def test_min_keep_cols_enforced(self):
        rng = np.random.default_rng(5)
        lo = np.abs(rng.standard_normal((8, 16))) * 1e-6  # would be wiped out
        hi = np.abs(rng.standard_normal((8, 16))) + 10.0
        cfg = TWPruneConfig(granularity=4, min_keep_cols=2)
        res = tw_prune_step([hi, lo], 0.9, cfg)
        assert res.col_keeps[1].sum() >= 2

    def test_min_keep_rows_enforced(self):
        rng = np.random.default_rng(6)
        scores = rand_scores(rng, [(16, 16)])
        cfg = TWPruneConfig(granularity=4, min_keep_rows=1, col_row_split=0.0)
        res = tw_prune_step(scores, 0.9, cfg)
        for rm in res.row_masks[0]:
            assert rm.sum() >= 1

    def test_pure_column_pruning(self):
        rng = np.random.default_rng(7)
        scores = rand_scores(rng, [(16, 32)])
        cfg = TWPruneConfig(granularity=8, col_row_split=1.0)
        res = tw_prune_step(scores, 0.5, cfg)
        # all surviving rows intact
        for rm in res.row_masks[0]:
            assert rm.all()

    def test_pure_row_pruning(self):
        rng = np.random.default_rng(8)
        scores = rand_scores(rng, [(16, 32)])
        cfg = TWPruneConfig(granularity=8, col_row_split=0.0, min_keep_cols=0)
        res = tw_prune_step(scores, 0.5, cfg)
        assert res.col_keeps[0].all()

    def test_reorganize_false_keeps_panel_boundaries(self):
        rng = np.random.default_rng(9)
        scores = rand_scores(rng, [(16, 32)])
        cfg = TWPruneConfig(granularity=8, reorganize=False)
        res = tw_prune_step(scores, 0.5, cfg)
        for cols in res.column_groups[0]:
            assert cols.max() // 8 == cols.min() // 8  # within one panel

    def test_units_budget_mode(self):
        rng = np.random.default_rng(10)
        scores = rand_scores(rng, [(32, 64)])
        cfg = TWPruneConfig(granularity=8, budget="units")
        res = tw_prune_step(scores, 0.75, cfg)
        assert 0.6 < res.achieved_sparsity < 0.9

    def test_monotone_stages(self):
        """Re-running at a higher target with zeroed scores on pruned
        elements must not decrease sparsity."""
        rng = np.random.default_rng(11)
        w = np.abs(rng.standard_normal((32, 64)))
        cfg = TWPruneConfig(granularity=8)
        res1 = tw_prune_step([w], 0.4, cfg)
        w2 = w * res1.masks[0]
        res2 = tw_prune_step([w2], 0.7, cfg)
        assert res2.achieved_sparsity >= res1.achieved_sparsity

    def test_rejects_1d_scores(self):
        with pytest.raises(ValueError):
            tw_prune_step([np.ones(4)], 0.5, TWPruneConfig(granularity=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TWPruneConfig(granularity=0)
        with pytest.raises(ValueError):
            TWPruneConfig(col_row_split=1.5)
        with pytest.raises(ValueError):
            TWPruneConfig(budget="percentile")
        with pytest.raises(ValueError):
            TWPruneConfig(min_keep_cols=-1)

    def test_adjust_shape_mismatch(self):
        rng = np.random.default_rng(12)
        scores = rand_scores(rng, [(8, 8)])
        with pytest.raises(ValueError):
            tw_prune_step(
                [scores[0]], 0.5, TWPruneConfig(granularity=4),
                column_score_adjust=[np.ones(3)],
            )


class TestApriori:
    def test_unit_ew_sparsity(self):
        mask = np.array([[1, 0], [1, 0], [0, 0], [1, 0]], dtype=bool)
        np.testing.assert_allclose(unit_ew_sparsity(mask), [0.25, 1.0])

    def test_adjust_sets_zero_and_inf(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        ew_sp = np.array([0.9, 0.1, 0.5, 0.95, 0.2])
        cfg = AprioriConfig(top_n=2, last_n=2)
        out = apriori_adjust(scores, ew_sp, cfg)
        assert out[3] == 0.0 and out[0] == 0.0  # most EW-sparse
        assert np.isinf(out[1]) and np.isinf(out[4])  # least EW-sparse
        assert out[2] == 3.0  # untouched

    def test_fractional_strengths(self):
        scores = np.ones(10)
        ew_sp = np.linspace(0, 1, 10)
        out = apriori_adjust(scores, ew_sp, AprioriConfig(top_n=0.2, last_n=0.3))
        assert (out == 0).sum() == 2
        assert np.isinf(out).sum() == 3

    def test_no_overlap_when_sets_collide(self):
        scores = np.ones(4)
        ew_sp = np.array([0.1, 0.2, 0.3, 0.4])
        out = apriori_adjust(scores, ew_sp, AprioriConfig(top_n=3, last_n=3))
        assert (out == 0).sum() + np.isinf(out).sum() <= 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AprioriConfig(top_n=1.5)
        with pytest.raises(ValueError):
            AprioriConfig(last_n=-1)

    def test_apriori_steers_pruning(self):
        """Columns EW prunes completely should be pruned by TW first."""
        rng = np.random.default_rng(13)
        w = np.abs(rng.standard_normal((32, 32))) + 0.5
        ew_masks = global_topk_keep_masks([np.where(
            np.arange(32)[None, :] < 8, 0.01, w)], 0.25)
        # columns 0..7 are fully EW-pruned
        ew_sp = unit_ew_sparsity(ew_masks[0])
        from repro.core.importance import column_unit_scores

        cs = column_unit_scores(w)
        adjusted = apriori_adjust(cs, ew_sp, AprioriConfig(top_n=8, last_n=0))
        res = tw_prune_step(
            [w], 0.25, TWPruneConfig(granularity=8, col_row_split=1.0),
            column_score_adjust=[adjusted],
        )
        assert not res.col_keeps[0][:8].any()


class TestTEW:
    def test_restores_delta_fraction(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((32, 64))
        s = np.abs(w)
        res = tw_prune_step([s], 0.8, TWPruneConfig(granularity=8))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.05))
        restored = sum(np.count_nonzero(m) for m in sol.ew_masks)
        assert restored / sum(m.size for m in sol.masks) == pytest.approx(0.05, abs=0.01)
        assert sol.overall_sparsity == pytest.approx(
            res.achieved_sparsity - 0.05, abs=0.01
        )

    def test_restored_elements_have_top_scores(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((16, 32))
        s = np.abs(w)
        res = tw_prune_step([s], 0.75, TWPruneConfig(granularity=8))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.1))
        restored_scores = s[sol.ew_masks[0]]
        still_pruned = s[~sol.masks[0]]
        if restored_scores.size and still_pruned.size:
            assert restored_scores.min() >= still_pruned.max() - 1e-12

    def test_masks_disjoint_and_union(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((16, 16))
        s = np.abs(w)
        res = tw_prune_step([s], 0.7, TWPruneConfig(granularity=4))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.05))
        assert not (sol.tw_masks[0] & sol.ew_masks[0]).any()
        np.testing.assert_array_equal(sol.masks[0], sol.tw_masks[0] | sol.ew_masks[0])

    def test_residual_holds_restored_values(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((16, 16))
        s = np.abs(w)
        res = tw_prune_step([s], 0.7, TWPruneConfig(granularity=4))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.08))
        np.testing.assert_array_equal(
            sol.residuals[0].to_dense(), np.where(sol.ew_masks[0], w, 0.0)
        )

    def test_linearity_decomposition(self):
        """A·B_TEW == A·B_TW + A·residual — the execution identity."""
        rng = np.random.default_rng(18)
        w = rng.standard_normal((24, 32))
        s = np.abs(w)
        res = tw_prune_step([s], 0.75, TWPruneConfig(granularity=8))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.05))
        a = rng.standard_normal((5, 24))
        full = a @ (w * sol.masks[0])
        tw_part = a @ (w * sol.tw_masks[0])
        ew_part = sol.residuals[0].left_matmul_dense(a)
        np.testing.assert_allclose(full, tw_part + ew_part, atol=1e-10)

    def test_zero_delta_is_pure_tw(self):
        rng = np.random.default_rng(19)
        w = rng.standard_normal((8, 8))
        s = np.abs(w)
        res = tw_prune_step([s], 0.5, TWPruneConfig(granularity=4))
        sol = tew_overlay([w], [s], res.masks, TEWConfig(delta=0.0))
        np.testing.assert_array_equal(sol.masks[0], res.masks[0])
        assert sol.residuals[0].nnz == 0

    def test_multi_layer_global_restore(self):
        rng = np.random.default_rng(20)
        ws = [rng.standard_normal((16, 16)), rng.standard_normal((16, 16))]
        ss = [np.abs(ws[0]) * 100, np.abs(ws[1])]  # layer 0 far more important
        res = tw_prune_step(ss, 0.8, TWPruneConfig(granularity=4))
        sol = tew_overlay(ws, ss, res.masks, TEWConfig(delta=0.1))
        restored = [int(m.sum()) for m in sol.ew_masks]
        assert restored[0] >= restored[1]  # global ranking favors layer 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            tew_overlay([np.ones((2, 2))], [], [np.ones((2, 2), dtype=bool)], TEWConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TEWConfig(delta=-0.1)
        with pytest.raises(ValueError):
            TEWConfig(delta=1.0)


@given(
    st.floats(0.0, 0.95),
    st.sampled_from([4, 8, 16]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_tw_step_property(target, g, split, seed):
    rng = np.random.default_rng(seed)
    scores = [np.abs(rng.standard_normal((24, 40)))]
    cfg = TWPruneConfig(granularity=g, col_row_split=split, min_keep_cols=0, min_keep_rows=0)
    res = tw_prune_step(scores, target, cfg)
    # mask factors as TW
    validate_tw_mask(res.masks[0], g)
    # achieved sparsity near target (element-budget greedy, one-unit slack)
    assert res.achieved_sparsity == pytest.approx(target, abs=0.08)
    # sparsity bounded
    assert 0.0 <= res.achieved_sparsity <= 1.0
