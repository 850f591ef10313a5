"""Vectorized-vs-reference equivalence: the vectorisation contract.

Every fast path must produce *bit-identical* outputs to its scalar oracle
(see the contract notes in ``repro.kernels`` and
``repro.core.tile_sparsity``):

- ``_global_select``            vs ``_global_select_reference``
- ``tw_prune_step``             vs ``tw_prune_step_reference``
- ``csr_spmm`` / ``csc_left_spmm`` vs the scalar row-/column-wise loops
- ``blocked_transpose``         vs ``blocked_transpose_reference``
- ``tw_mask_from_tiles``        vs its per-tile scatter loop
- ``CSRMatrix.transpose``       vs the dense round-trip it replaced

Selection equivalence over arbitrary score/weight arrays is exercised with
heavy tie pressure (small-integer scores) because tie-breaking order is part
of the contract.  Full prune-step equivalence uses integer-valued score
matrices — there every unit score is exactly representable, so the fast
path's re-associated summations are provably exact — plus seeded continuous
data, where the deterministic seeds pin the behaviour.
"""

import ctypes
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import row_unit_scores, row_unit_scores_matrix
from repro.core.masks import _tw_mask_from_tiles_loop, tw_mask_from_tiles
from repro.core.tile_sparsity import (
    TWPruneConfig,
    _global_select,
    _global_select_reference,
    tw_prune_step,
    tw_prune_step_reference,
)
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.tiled import TiledTWMatrix
from repro.kernels.spmm import (
    csc_left_spmm,
    csr_spmm,
    spmm_colwise_reference,
    spmm_rowwise_reference,
)
from repro.kernels.im2col import col2im, col2im_reference, im2col
from repro.kernels.masked import (
    DEPTH_QUANTUM,
    DTYPE_TOLERANCES,
    tw_gemm,
    tw_gemm_reference,
    tw_gemm_work,
)
from repro.kernels.transpose import blocked_transpose, blocked_transpose_reference
from repro.runtime.batching import batching_plan
from repro.runtime.scheduler import build_execution_plan


def assert_step_equal(a, b):
    assert len(a.masks) == len(b.masks)
    for x, y in zip(a.col_keeps, b.col_keeps):
        np.testing.assert_array_equal(x, y)
    for ga, gb in zip(a.column_groups, b.column_groups):
        assert len(ga) == len(gb)
        for x, y in zip(ga, gb):
            np.testing.assert_array_equal(x, y)
    for ra, rb in zip(a.row_masks, b.row_masks):
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            np.testing.assert_array_equal(x, y)
    for x, y in zip(a.masks, b.masks):
        np.testing.assert_array_equal(x, y)
    assert a.achieved_sparsity == b.achieved_sparsity


class TestGlobalSelect:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["elements", "units"]),
        st.sampled_from(["ties", "continuous", "constant", "inf"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, seed, budget, style):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 80))
        if style == "ties":
            scores = rng.integers(0, 4, n).astype(float)
        elif style == "continuous":
            scores = rng.standard_normal(n)
        elif style == "constant":
            scores = np.full(n, 3.0)
        else:
            scores = rng.integers(0, 4, n).astype(float)
            if n:
                scores[rng.integers(0, n)] = np.inf
        weights = rng.integers(0, 9, n).astype(float)
        forced = rng.random(n) < 0.2
        keep_frac = float(rng.choice([0.0, 0.1, 0.5, 0.9, 1.0, rng.random()]))
        got = _global_select(scores, weights, keep_frac, forced, budget)
        want = _global_select_reference(scores, weights, keep_frac, forced, budget)
        np.testing.assert_array_equal(got, want)

    def test_nan_scores_fall_back_consistently(self):
        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        weights = np.ones(5)
        forced = np.zeros(5, dtype=bool)
        for budget in ("elements", "units"):
            got = _global_select(scores, weights, 0.6, forced, budget)
            want = _global_select_reference(scores, weights, 0.6, forced, budget)
            np.testing.assert_array_equal(got, want)

    def test_tie_breaking_prefers_low_index(self):
        # four identical scores, budget for two: the two lowest indices win
        scores = np.full(4, 7.0)
        keep = _global_select(scores, np.ones(4), 0.5, np.zeros(4, bool), "elements")
        np.testing.assert_array_equal(keep, [True, True, False, False])


class TestPruneStepEquivalence:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.sampled_from(["elements", "units"]),
        st.sampled_from(["sum", "mean", "l2"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_scores_bit_identical(self, seed, layers, budget, reduction, reorg):
        rng = np.random.default_rng(seed)
        mats = [
            rng.integers(0, 50, (int(rng.integers(1, 40)), int(rng.integers(1, 50))))
            .astype(float)
            for _ in range(layers)
        ]
        cfg = TWPruneConfig(
            granularity=int(rng.integers(1, 12)),
            col_row_split=float(rng.choice([0.0, 0.3, 0.5, 1.0])),
            reorganize=reorg,
            reduction=reduction,
            min_keep_cols=int(rng.integers(0, 3)),
            min_keep_rows=int(rng.integers(0, 3)),
            budget=budget,
        )
        target = float(rng.uniform(0.0, 0.95))
        assert_step_equal(
            tw_prune_step(mats, target, cfg),
            tw_prune_step_reference(mats, target, cfg),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_continuous_scores_seeded(self, seed):
        rng = np.random.default_rng(seed)
        mats = [np.abs(rng.standard_normal((24, 40))), np.abs(rng.standard_normal((16, 33)))]
        cfg = TWPruneConfig(granularity=8, budget=["elements", "units"][seed % 2])
        target = float(rng.uniform(0.0, 0.9))
        assert_step_equal(
            tw_prune_step(mats, target, cfg),
            tw_prune_step_reference(mats, target, cfg),
        )

    def test_narrow_tile_gather_path(self):
        # > 768 groups triggers the bulk-gather scoring branch
        rng = np.random.default_rng(9)
        mats = [rng.integers(0, 20, (8, 1600)).astype(float)]
        cfg = TWPruneConfig(granularity=1, min_keep_cols=0, min_keep_rows=0)
        assert_step_equal(
            tw_prune_step(mats, 0.3, cfg),
            tw_prune_step_reference(mats, 0.3, cfg),
        )

    def test_nan_score_matrix_matches_reference(self):
        # a NaN element makes its column/tile-row scores NaN; the fast
        # path's argmax shortcut and quickselect must fall back so the
        # forced sets and selections still match the stable-sort oracle
        rng = np.random.default_rng(11)
        mats = [rng.integers(1, 30, (12, 24)).astype(float)]
        mats[0][3, 7] = np.nan
        cfg = TWPruneConfig(granularity=4)
        assert_step_equal(
            tw_prune_step(mats, 0.5, cfg),
            tw_prune_step_reference(mats, 0.5, cfg),
        )

    def test_inf_in_pruned_column_matches_reference(self):
        # an inf importance score in a column that loses phase-1 pruning
        # sits inside a surviving tile's span; the span-dgemv would compute
        # 0*inf = NaN without the recompute guard
        rng = np.random.default_rng(12)
        mats = [rng.integers(1, 30, (12, 24)).astype(float)]
        adjust = [rng.integers(1, 30, 24).astype(float)]
        adjust[0][5] = 0.0  # force column 5 to be pruned in phase 1
        mats[0][:, 5] = np.inf
        cfg = TWPruneConfig(granularity=4, min_keep_cols=0)
        assert_step_equal(
            tw_prune_step(mats, 0.5, cfg, column_score_adjust=adjust),
            tw_prune_step_reference(mats, 0.5, cfg, column_score_adjust=adjust),
        )

    def test_apriori_adjust_paths_agree(self):
        rng = np.random.default_rng(10)
        mats = [rng.integers(0, 30, (12, 24)).astype(float)]
        adjust = [rng.integers(0, 30, 24).astype(float)]
        cfg = TWPruneConfig(granularity=4)
        assert_step_equal(
            tw_prune_step(mats, 0.5, cfg, column_score_adjust=adjust),
            tw_prune_step_reference(mats, 0.5, cfg, column_score_adjust=adjust),
        )


class TestRowUnitScores:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sum", "mean", "l2"]))
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_per_tile_on_integers(self, seed, reduction):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        scores = rng.integers(0, 9, (k, n)).astype(float)
        keep = rng.random(n) < 0.7
        groups = TiledTWMatrix.column_groups(keep, int(rng.integers(1, 8)))
        got = row_unit_scores_matrix(scores, groups, reduction)
        want = row_unit_scores(scores, groups, reduction)
        assert got.shape == (len(groups), k)
        for t, w in enumerate(want):
            np.testing.assert_array_equal(got[t], w)

    def test_unsorted_group_falls_back(self):
        scores = np.arange(12.0).reshape(3, 4)
        groups = [np.array([2, 0])]  # unsorted → reference gather path
        got = row_unit_scores_matrix(scores, groups, "sum")
        np.testing.assert_array_equal(got[0], scores[:, [2, 0]].sum(axis=1))

    def test_empty_group_scores_zero_under_mean(self):
        # many uniform-width groups with an empty straggler: the bulk-gather
        # branch must not divide 0/0 — empty groups score 0 like the oracle
        scores = np.ones((2, 400))
        groups = [np.array([i]) for i in range(250)] + [np.array([], dtype=np.int64)]
        got = row_unit_scores_matrix(scores, groups, "mean", assume_sorted=True)
        want = row_unit_scores(scores, groups, "mean")
        for t, w in enumerate(want):
            np.testing.assert_array_equal(got[t], w)
        assert not np.isnan(got).any()


class TestSpMM:
    # dyadic-rational operands: every product and partial sum is exactly
    # representable, so segment reduction must be BIT-identical regardless
    # of summation association; continuous operands then pin agreement to
    # summation-order rounding (the documented contract)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_csr_bit_identical_on_dyadic(self, seed):
        rng = np.random.default_rng(seed)
        m, k, b = int(rng.integers(1, 30)), int(rng.integers(1, 30)), int(rng.integers(1, 8))
        w = rng.integers(-8, 9, (m, k)) * 0.25 * (rng.random((m, k)) < 0.3)
        csr = CSRMatrix.from_dense(w)
        rhs = rng.integers(-8, 9, (k, b)) * 0.5
        np.testing.assert_array_equal(
            csr_spmm(csr, rhs), spmm_rowwise_reference(csr, rhs)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_csc_bit_identical_on_dyadic(self, seed):
        rng = np.random.default_rng(seed)
        m, k, b = int(rng.integers(1, 30)), int(rng.integers(1, 30)), int(rng.integers(1, 8))
        w = rng.integers(-8, 9, (k, m)) * 0.25 * (rng.random((k, m)) < 0.3)
        csc = CSCMatrix.from_dense(w)
        lhs = rng.integers(-8, 9, (b, k)) * 0.5
        np.testing.assert_array_equal(
            csc_left_spmm(lhs, csc), spmm_colwise_reference(lhs, csc)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_continuous_within_rounding(self, seed):
        rng = np.random.default_rng(seed)
        m, k, b = int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(1, 8))
        w = rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.4)
        csr = CSRMatrix.from_dense(w)
        rhs = rng.standard_normal((k, b))
        np.testing.assert_allclose(
            csr_spmm(csr, rhs), spmm_rowwise_reference(csr, rhs),
            rtol=0, atol=1e-12,
        )

    def test_empty_rows_and_matrix(self):
        w = np.zeros((4, 5))
        w[1, 2] = 3.0
        csr = CSRMatrix.from_dense(w)
        rhs = np.ones((5, 2))
        np.testing.assert_array_equal(
            csr_spmm(csr, rhs), spmm_rowwise_reference(csr, rhs)
        )
        empty = CSRMatrix.from_dense(np.zeros((3, 4)))
        np.testing.assert_array_equal(
            csr_spmm(empty, np.ones((4, 2))), np.zeros((3, 2))
        )


class TestTranspose:
    @given(
        st.integers(1, 90),
        st.integers(1, 90),
        st.sampled_from([1, 3, 64, 200]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, m, n, block, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        got = blocked_transpose(a, block)
        np.testing.assert_array_equal(got, blocked_transpose_reference(a, block))
        np.testing.assert_array_equal(got, np.ascontiguousarray(a.T))
        assert got.flags.c_contiguous

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            blocked_transpose(np.ones(3))
        with pytest.raises(ValueError):
            blocked_transpose(np.ones((2, 2)), block=0)
        with pytest.raises(ValueError):
            blocked_transpose_reference(np.ones((2, 2)), block=-1)


class TestMaskFromTiles:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_scatter_loop(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 20)), int(rng.integers(1, 40))
        keep = rng.random(n) < 0.6
        groups = TiledTWMatrix.column_groups(keep, int(rng.integers(1, 8)))
        row_masks = [rng.random(k) < 0.5 for _ in groups]
        got = tw_mask_from_tiles((k, n), groups, row_masks)
        want = _tw_mask_from_tiles_loop((k, n), groups, row_masks)
        np.testing.assert_array_equal(got, want)

    def test_duplicate_columns_use_union_semantics(self):
        # two tiles owning the same column: the loop ORs their rows; the
        # fast path must detect the overlap and fall back rather than let
        # the second tile overwrite the first
        groups = [np.array([0, 1]), np.array([1, 2])]
        row_masks = [np.array([True, False]), np.array([False, True])]
        got = tw_mask_from_tiles((2, 3), groups, row_masks)
        np.testing.assert_array_equal(
            got, _tw_mask_from_tiles_loop((2, 3), groups, row_masks)
        )
        assert got[0, 1] and got[1, 1]  # both tiles' rows survive on col 1

    def test_rejects_bad_row_mask_length(self):
        with pytest.raises(ValueError):
            tw_mask_from_tiles((3, 4), [np.array([0])], [np.ones(2, dtype=bool)])
        with pytest.raises(ValueError):
            tw_mask_from_tiles((3, 4), [np.array([0])], [])


class TestCSRTranspose:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        w = rng.standard_normal((m, k)) * (rng.random((m, k)) < 0.4)
        csr = CSRMatrix.from_dense(w)
        got = csr.transpose()
        want = CSRMatrix.from_dense(csr.to_dense().T)
        assert got == want

    def test_explicit_zeros_dropped(self):
        # hand-built CSR with an explicit zero: the historical dense
        # round-trip dropped it, so the index-level transpose must too
        csr = CSRMatrix(
            shape=(2, 2),
            indptr=np.array([0, 2, 2], dtype=np.int64),
            indices=np.array([0, 1], dtype=np.int64),
            data=np.array([5.0, 0.0]),
        )
        t = csr.transpose()
        assert t.nnz == 1
        assert t == CSRMatrix.from_dense(csr.to_dense().T)


def _random_tw(rng, k, n, g) -> TiledTWMatrix:
    """A TW matrix with integer payloads and uneven per-tile depths."""
    col_keep = rng.random(n) < rng.uniform(0.2, 0.9)
    groups = TiledTWMatrix.column_groups(col_keep, g)
    row_masks = [rng.random(k) < rng.uniform(0.0, 0.9) for _ in groups]
    dense = rng.integers(-8, 9, (k, n)).astype(float)
    return TiledTWMatrix.from_masks(dense, g, col_keep, row_masks)


class TestTWGemmBatched:
    # the executor gathers each tile's kept activation rows and zero-pads
    # the depth to a multiple of 32 with zero rows against zero weights, so
    # on exactly-representable data every padded term adds an exact zero:
    # bit-identity with the per-tile oracle is required

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_on_integer_data(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        k, n = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        tw = _random_tw(rng, k, n, int(rng.integers(1, 10)))
        a = rng.integers(-8, 9, (m, k)).astype(float)
        np.testing.assert_array_equal(tw_gemm(a, tw), tw_gemm_reference(a, tw))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_continuous_within_rounding(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = int(rng.integers(1, 10)), int(rng.integers(1, 30)), int(rng.integers(1, 50))
        col_keep = rng.random(n) < 0.6
        groups = TiledTWMatrix.column_groups(col_keep, 4)
        row_masks = [rng.random(k) < 0.5 for _ in groups]
        tw = TiledTWMatrix.from_masks(rng.standard_normal((k, n)), 4, col_keep, row_masks)
        a = rng.standard_normal((m, k))
        np.testing.assert_allclose(
            tw_gemm(a, tw), tw_gemm_reference(a, tw), rtol=0, atol=1e-12
        )

    def test_empty_weight(self):
        tw = TiledTWMatrix(shape=(6, 8), granularity=4, tiles=())
        out = tw_gemm(np.ones((3, 6)), tw)
        np.testing.assert_array_equal(out, np.zeros((3, 8)))

    def test_full_depth_padding_group(self):
        # one group mixing a full-depth tile with a nearly-empty one: the
        # padded tail of the shallow tile must contribute exact zeros
        rng = np.random.default_rng(0)
        k, n, g = 10, 8, 4
        col_keep = np.ones(n, dtype=bool)
        masks = [np.ones(k, dtype=bool), np.zeros(k, dtype=bool)]
        masks[1][3] = True  # depth 1 vs depth 10 in the same width group
        dense = rng.integers(-5, 6, (k, n)).astype(float)
        tw = TiledTWMatrix.from_masks(dense, g, col_keep, masks)
        a = rng.integers(-5, 6, (4, k)).astype(float)
        np.testing.assert_array_equal(tw_gemm(a, tw), tw_gemm_reference(a, tw))

    def test_unbatched_plan_matches(self):
        rng = np.random.default_rng(1)
        tw = _random_tw(rng, 20, 30, 4)
        a = rng.integers(-6, 7, (5, 20)).astype(float)
        plan = batching_plan(tw, enabled=False)  # one group per tile
        np.testing.assert_array_equal(tw_gemm(a, tw, plan=plan), tw_gemm_reference(a, tw))

    def test_execution_plan_stream_order_matches(self):
        rng = np.random.default_rng(2)
        tw = _random_tw(rng, 24, 40, 4)
        a = rng.integers(-6, 7, (3, 24)).astype(float)
        plan = build_execution_plan(tw)
        np.testing.assert_array_equal(tw_gemm(a, tw, plan=plan), tw_gemm_reference(a, tw))

    def test_dtype_respected_not_promoted(self):
        # satellite fix: float32 in, float32 out (the reference oracle
        # promotes to float64 — that behaviour is pinned separately)
        rng = np.random.default_rng(3)
        col_keep = np.ones(8, dtype=bool)
        masks = [np.ones(6, dtype=bool), np.ones(6, dtype=bool)]
        dense = rng.integers(-4, 5, (6, 8)).astype(float)
        tw32 = TiledTWMatrix.from_masks(dense, 4, col_keep, masks, dtype=np.float32)
        a32 = rng.integers(-4, 5, (3, 6)).astype(np.float32)
        out = tw_gemm(a32, tw32)
        assert out.dtype == np.float32
        assert tw_gemm_reference(a32, tw32).dtype == np.float64
        # float64 activations against float32 payloads promote as numpy does
        assert tw_gemm(a32.astype(np.float64), tw32).dtype == np.float64
        np.testing.assert_array_equal(
            out.astype(np.float64),
            tw_gemm_reference(a32.astype(np.float64),
                              TiledTWMatrix.from_masks(dense, 4, col_keep, masks)),
        )

    def test_repeat_calls_hit_operand_memo(self):
        rng = np.random.default_rng(4)
        tw = _random_tw(rng, 16, 24, 4)
        a = rng.integers(-4, 5, (3, 16)).astype(float)
        first = tw_gemm(a, tw)
        assert "_tile_operands" in tw.__dict__  # memo materialised
        np.testing.assert_array_equal(tw_gemm(a, tw), first)

    def test_non_finite_in_pruned_rows_is_never_read(self):
        # a K row that every tile prunes is never gathered, so NaN/Inf there
        # cannot reach the output; in kept rows non-finite values propagate
        # exactly as in the per-tile oracle (depth padding reads no input)
        rng = np.random.default_rng(21)
        k, n, g = 12, 8, 4
        masks = [rng.random(k) < 0.5 for _ in range(2)]
        for mask in masks:
            mask[5], mask[2] = False, True
        dense = rng.integers(-5, 6, (k, n)).astype(float)
        tw = TiledTWMatrix.from_masks(dense, g, np.ones(n, dtype=bool), masks)
        a = rng.integers(-5, 6, (4, k)).astype(float)
        a[:, 5] = np.nan
        a[1, 5] = np.inf
        got = tw_gemm(a, tw)
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, tw_gemm_reference(a, tw))
        a[0, 2], a[3, 2] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(tw_gemm(a, tw), tw_gemm_reference(a, tw))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_executed_work_within_depth_quantum(self, seed):
        rng = np.random.default_rng(seed)
        tw = _random_tw(rng, int(rng.integers(1, 120)), int(rng.integers(1, 60)), 8)
        for group in batching_plan(tw, enabled=False):
            tile = tw.tiles[group.tile_ids[0]]
            executed, useful = tw_gemm_work(tw, [group])
            if not (tile.kept_k and tile.kept_n):
                assert executed == useful == 0
                continue
            bound = -(-tile.kept_k // DEPTH_QUANTUM) * DEPTH_QUANTUM / tile.kept_k
            assert 1.0 <= executed / useful <= bound
        executed, useful = tw_gemm_work(tw)
        assert useful == sum(t.work for t in tw.tiles)
        assert executed >= useful

    # --- the explicit oracle-comparison policy (mixed precision) -------
    # tw_gemm_reference is the float-payload scalar oracle and promotes
    # its output to float64; the batched path preserves the storage
    # dtype.  Policy: compare in the *batched path's* dtype (reference
    # output cast to it), within the DTYPE_TOLERANCES table.

    @pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
    def test_float_dtypes_match_oracle_within_policy(self, dtype):
        rng = np.random.default_rng(11)
        k, n, g = 32, 48, 8
        col_keep = rng.random(n) < 0.7
        groups = TiledTWMatrix.column_groups(col_keep, g)
        row_masks = [rng.random(k) < 0.6 for _ in groups]
        dense = rng.standard_normal((k, n))
        tw = TiledTWMatrix.from_masks(
            dense, g, col_keep, row_masks, dtype=np.dtype(dtype)
        )
        a = rng.standard_normal((6, k)).astype(dtype)
        got = tw_gemm(a, tw)
        assert got.dtype == np.dtype(dtype)
        want = tw_gemm_reference(a, tw).astype(dtype)
        tol = DTYPE_TOLERANCES[dtype]
        np.testing.assert_allclose(got, want, rtol=tol["rtol"], atol=tol["atol"])

    def test_int8_matches_dequantised_float_path(self):
        # int8 has no scalar oracle: the policy compares against the
        # float64 tw_gemm over the dequantised weights (to_dense carries
        # the per-tile scales), which bounds the error at exactly the
        # quantisation error
        rng = np.random.default_rng(12)
        k, n, g = 32, 48, 8
        col_keep = rng.random(n) < 0.7
        groups = TiledTWMatrix.column_groups(col_keep, g)
        row_masks = [rng.random(k) < 0.6 for _ in groups]
        dense = rng.standard_normal((k, n))
        tw8 = TiledTWMatrix.from_masks(
            dense, g, col_keep, row_masks, dtype=np.dtype("int8")
        )
        assert tw8.quantized
        a = rng.standard_normal((6, k)).astype(np.float32)
        got = tw_gemm(a, tw8)
        assert got.dtype == np.float32  # fp32 accumulation, float out
        want = a.astype(np.float64) @ tw8.to_dense().astype(np.float64)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_compute_operand_memo_reused_across_calls(self):
        # fp16 storage accumulates in fp32: the upcast operand is memoised
        # per (compute dtype, tile) so a serving loop upcasts once
        rng = np.random.default_rng(13)
        col_keep = np.ones(8, dtype=bool)
        masks = [np.ones(16, dtype=bool), np.ones(16, dtype=bool)]
        dense = rng.standard_normal((16, 8))
        tw = TiledTWMatrix.from_masks(dense, 4, col_keep, masks, dtype=np.float16)
        a = rng.standard_normal((3, 16)).astype(np.float16)
        first = tw_gemm(a, tw)
        ccache = tw.__dict__["_tile_operands"][np.dtype(np.float32).str]
        ids = {k: id(v) for k, v in ccache.items()}
        again = tw_gemm(a, tw)
        assert {k: id(v) for k, v in ccache.items()} == ids  # no rebuild
        np.testing.assert_array_equal(first, again)


def _openblas_thread_controls():
    """(set, get) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


class TestBlasThreadInvariance:
    # float32 results reproduce across BLAS thread counts (hosts, or
    # OPENBLAS_NUM_THREADS settings): tw_gemm's padded depths make the
    # thread count irrelevant

    @pytest.mark.parametrize("m", [16, 128])
    def test_float32_output_independent_of_blas_threads(self, m):
        controls = _openblas_thread_controls()
        if controls is None or (os.cpu_count() or 1) < 2:
            pytest.skip("needs OpenBLAS thread control and at least 2 CPUs")
        set_threads, get_threads = controls
        rng = np.random.default_rng(m)
        k, n, g = 1024, 256, 128
        masks = [np.zeros(k, dtype=bool) for _ in range(2)]
        for mask, kept in zip(masks, (501, 453)):
            mask[rng.choice(k, kept, replace=False)] = True
        dense = rng.standard_normal((k, n))
        tw = TiledTWMatrix.from_masks(
            dense, g, np.ones(n, dtype=bool), masks, dtype=np.float32
        )
        assert all(t.kept_k % DEPTH_QUANTUM for t in tw.tiles)
        a = rng.standard_normal((m, k)).astype(np.float32)
        before = get_threads()
        try:
            set_threads(1)
            one = tw_gemm(a, tw)
            set_threads(2)
            two = tw_gemm(a, tw)
        finally:
            set_threads(before)
        np.testing.assert_array_equal(one, two)


class TestCol2ImEquivalence:
    # the fast path scatters kernel-offset-major, so every output cell
    # accumulates its overlapping contributions in the reference loop's
    # (i, j) order: bit-identity holds even on continuous data

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(self, seed, kh, kw, stride, padding):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h = int(rng.integers(kh, kh + 6))
        w = int(rng.integers(kw, kw + 6))
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        cols = rng.standard_normal((n * oh * ow, c * kh * kw))
        got = col2im(cols, (n, c, h, w), kh, kw, stride, padding)
        want = col2im_reference(cols, (n, c, h, w), kh, kw, stride, padding)
        np.testing.assert_array_equal(got, want)

    def test_adjoint_of_im2col_round_trip(self):
        # col2im(im2col(x)) counts each input position once per window
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, 3, 3, stride=3)  # non-overlapping: exact identity
        np.testing.assert_array_equal(col2im(cols, x.shape, 3, 3, stride=3), x)

    def test_dtype_preserved(self):
        cols = np.ones((4, 4), dtype=np.float32)
        out = col2im(cols, (1, 1, 3, 3), 2, 2, stride=1, padding=0)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out, col2im_reference(cols, (1, 1, 3, 3), 2, 2)
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            col2im(np.ones((3, 3)), (1, 1, 4, 4), 2, 2)


class TestValidatorsStillRaise:
    def test_csr_unsorted_row(self):
        with pytest.raises(ValueError, match="row 1 has unsorted"):
            CSRMatrix(
                shape=(2, 4),
                indptr=np.array([0, 1, 3], dtype=np.int64),
                indices=np.array([0, 2, 1], dtype=np.int64),
                data=np.ones(3),
            )

    def test_csr_duplicate_column(self):
        with pytest.raises(ValueError, match="unsorted or duplicate"):
            CSRMatrix(
                shape=(1, 4),
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([1, 1], dtype=np.int64),
                data=np.ones(2),
            )

    def test_csr_sorted_across_boundary_ok(self):
        # column index drops across a row boundary — legal, and the
        # vectorised adjacent-pair check must not flag it
        CSRMatrix(
            shape=(2, 4),
            indptr=np.array([0, 2, 4], dtype=np.int64),
            indices=np.array([2, 3, 0, 1], dtype=np.int64),
            data=np.ones(4),
        )

    def test_csc_unsorted_column(self):
        with pytest.raises(ValueError, match="column 0 has unsorted"):
            CSCMatrix(
                shape=(4, 2),
                indptr=np.array([0, 2, 2], dtype=np.int64),
                indices=np.array([2, 1], dtype=np.int64),
                data=np.ones(2),
            )
