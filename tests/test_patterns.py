"""Tests for the EW / VW / BW / TW pattern implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import (
    BlockWisePattern,
    ElementWisePattern,
    TileWisePattern,
    VectorWisePattern,
)
from repro.core.masks import validate_tw_mask


def rand_scores(rng, shapes):
    return [np.abs(rng.standard_normal(s)) + 1e-6 for s in shapes]


def vector_nnz_counts(mask: np.ndarray, vector_size: int) -> np.ndarray:
    """Non-zeros per full VW vector — constant by construction (the VW
    property the hardware exploits)."""
    mask = np.asarray(mask, dtype=bool)
    k, n = mask.shape
    n_full = k // vector_size
    if n_full == 0:
        return np.zeros((0, n), dtype=np.int64)
    body = mask[: n_full * vector_size].reshape(n_full, vector_size, n)
    return body.sum(axis=1)


def block_keep_grid(mask: np.ndarray, block_shape: tuple[int, int]) -> np.ndarray:
    """Boolean grid of surviving BW blocks for one mask (Fig. 13 view)."""
    mask = np.asarray(mask, dtype=bool)
    br, bc = block_shape
    k, n = mask.shape
    nbr, nbc = -(-k // br), -(-n // bc)
    out = np.zeros((nbr, nbc), dtype=bool)
    for i in range(nbr):
        for j in range(nbc):
            out[i, j] = mask[i * br : (i + 1) * br, j * bc : (j + 1) * bc].any()
    return out


class TestElementWise:
    def test_global_exact_sparsity(self):
        rng = np.random.default_rng(0)
        scores = rand_scores(rng, [(32, 32), (16, 64)])
        res = ElementWisePattern().prune(scores, 0.75)
        assert res.achieved_sparsity == pytest.approx(0.75, abs=1e-3)

    def test_local_uniform_per_layer(self):
        rng = np.random.default_rng(1)
        scores = rand_scores(rng, [(20, 20), (40, 10)])
        res = ElementWisePattern(scope="local").prune(scores, 0.5)
        for sp in res.per_matrix_sparsity():
            assert sp == pytest.approx(0.5, abs=0.01)

    def test_global_uneven_per_layer(self):
        """Fig. 5: global ranking yields uneven per-layer sparsity."""
        rng = np.random.default_rng(2)
        scores = [np.abs(rng.standard_normal((32, 32))) * (1 + 3 * i) for i in range(3)]
        res = ElementWisePattern().prune(scores, 0.75)
        sp = res.per_matrix_sparsity()
        assert max(sp) - min(sp) > 0.1

    def test_invalid_scope(self):
        with pytest.raises(ValueError):
            ElementWisePattern(scope="cosmic")

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            ElementWisePattern().prune([np.ones((2, 2))], -0.1)


class TestVectorWise:
    def test_exact_per_vector_quota(self):
        rng = np.random.default_rng(3)
        scores = rand_scores(rng, [(32, 8)])
        vw = VectorWisePattern(vector_size=16)
        res = vw.prune(scores, 0.5)
        counts = vector_nnz_counts(res.masks[0], vw.vector_size)
        assert np.all(counts == 8)  # 16 - round(0.5*16)

    def test_balanced_property_all_vectors_equal(self):
        """The defining VW property: every vector has identical nnz."""
        rng = np.random.default_rng(4)
        scores = rand_scores(rng, [(64, 16)])
        vw = VectorWisePattern(vector_size=4)
        for s in (0.25, 0.5, 0.75):
            res = vw.prune(scores, s)
            counts = vector_nnz_counts(res.masks[0], vw.vector_size)
            assert len(np.unique(counts)) == 1

    def test_keeps_largest_in_vector(self):
        scores = np.array([[4.0], [1.0], [3.0], [2.0]])
        vw = VectorWisePattern(vector_size=4)
        res = vw.prune([scores], 0.5)
        np.testing.assert_array_equal(res.masks[0][:, 0], [True, False, True, False])

    def test_ragged_tail_vector(self):
        rng = np.random.default_rng(5)
        scores = rand_scores(rng, [(10, 4)])  # 10 = 2 full vectors of 4 + tail of 2
        vw = VectorWisePattern(vector_size=4)
        res = vw.prune(scores, 0.5)
        # tail quota: 2 - round(0.5*2) = 1 kept per tail vector
        tail = res.masks[0][8:]
        assert np.all(tail.sum(axis=0) == 1)

    def test_sparsity_close_to_target(self):
        rng = np.random.default_rng(6)
        scores = rand_scores(rng, [(64, 32)])
        res = VectorWisePattern(vector_size=16).prune(scores, 0.75)
        assert res.achieved_sparsity == pytest.approx(0.75, abs=0.02)

    def test_cannot_express_uneven_sparsity(self):
        """The paper's criticism (§IV-B): per-column sparsity is forced
        uniform even when importance is concentrated in a few columns."""
        rng = np.random.default_rng(7)
        scores = np.abs(rng.standard_normal((64, 8)))
        scores[:, 0] *= 100  # hugely important column
        res = VectorWisePattern(vector_size=16).prune([scores], 0.5)
        per_col = 1 - res.masks[0].mean(axis=0)
        assert np.allclose(per_col, per_col[0])  # identical everywhere

    def test_invalid_vector_size(self):
        with pytest.raises(ValueError):
            VectorWisePattern(vector_size=0)

    def test_full_sparsity(self):
        res = VectorWisePattern(4).prune([np.ones((8, 2))], 1.0)
        assert not res.masks[0].any()

    def test_zero_sparsity(self):
        res = VectorWisePattern(4).prune([np.ones((8, 2))], 0.0)
        assert res.masks[0].all()


class TestBlockWise:
    def test_block_granular_mask(self):
        rng = np.random.default_rng(8)
        scores = rand_scores(rng, [(32, 32)])
        bw = BlockWisePattern(block_shape=(8, 8))
        res = bw.prune(scores, 0.5)
        mask = res.masks[0]
        # mask must be constant within each block
        for r0 in range(0, 32, 8):
            for c0 in range(0, 32, 8):
                blk = mask[r0 : r0 + 8, c0 : c0 + 8]
                assert blk.all() or not blk.any()

    def test_sparsity_close_to_target(self):
        rng = np.random.default_rng(9)
        scores = rand_scores(rng, [(64, 64), (32, 96)])
        res = BlockWisePattern(block_shape=(32, 32)).prune(scores, 0.75)
        assert res.achieved_sparsity == pytest.approx(0.75, abs=0.05)

    def test_keeps_high_score_blocks(self):
        scores = np.ones((4, 4)) * 0.01
        scores[:2, :2] = 100.0
        res = BlockWisePattern(block_shape=(2, 2)).prune([scores], 0.75)
        assert res.masks[0][:2, :2].all()
        assert not res.masks[0][2:, 2:].any()

    def test_edge_blocks_allowed(self):
        rng = np.random.default_rng(10)
        scores = rand_scores(rng, [(33, 33)])  # not divisible by 8
        res = BlockWisePattern(block_shape=(8, 8)).prune(scores, 0.5)
        assert res.masks[0].shape == (33, 33)

    def test_global_ranking_across_layers(self):
        rng = np.random.default_rng(11)
        hi = np.abs(rng.standard_normal((16, 16))) + 10
        lo = np.abs(rng.standard_normal((16, 16))) * 0.01
        res = BlockWisePattern(block_shape=(8, 8)).prune([hi, lo], 0.5)
        sp = res.per_matrix_sparsity()
        assert sp[0] < sp[1]

    def test_block_keep_grid(self):
        scores = np.ones((4, 4)) * 0.01
        scores[:2, :2] = 100.0
        bw = BlockWisePattern(block_shape=(2, 2))
        res = bw.prune([scores], 0.75)
        grid = block_keep_grid(res.masks[0], bw.block_shape)
        assert grid[0, 0] and grid.sum() == 1

    def test_invalid_block_shape(self):
        with pytest.raises(ValueError):
            BlockWisePattern(block_shape=(0, 2))

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            BlockWisePattern(reduction="max")


class TestTileWisePattern:
    def test_masks_are_tw_shaped(self):
        rng = np.random.default_rng(12)
        scores = rand_scores(rng, [(32, 64)])
        res = TileWisePattern(granularity=8).prune(scores, 0.6)
        validate_tw_mask(res.masks[0], 8)

    def test_sparsity_close_to_target(self):
        rng = np.random.default_rng(13)
        scores = rand_scores(rng, [(64, 128)])
        res = TileWisePattern(granularity=16).prune(scores, 0.75)
        assert res.achieved_sparsity == pytest.approx(0.75, abs=0.03)

    def test_config_and_granularity_mutually_exclusive(self):
        from repro.core.tile_sparsity import TWPruneConfig

        with pytest.raises(ValueError):
            TileWisePattern(config=TWPruneConfig(granularity=8), granularity=8)


class TestIrregularityOrdering:
    """Paper §IV-B: irregularity EW > TW > VW ≈ BW, measured as how many of
    the EW-chosen zeros each pattern can capture at equal sparsity (Fig. 6
    methodology)."""

    def test_tw_captures_more_ew_zeros_than_bw(self):
        rng = np.random.default_rng(14)
        # concentrated importance: some columns/areas matter much more
        base = np.abs(rng.standard_normal((128, 128)))
        col_importance = np.exp(rng.standard_normal(128))
        scores = [base * col_importance[None, :]]
        s = 0.75
        ew = ElementWisePattern().prune(scores, s).masks[0]
        tw = TileWisePattern(granularity=16).prune(scores, s).masks[0]
        bw = BlockWisePattern(block_shape=(32, 32)).prune(scores, s).masks[0]
        # overlap of pruned sets with EW's pruned set
        ew_pruned = ~ew
        tw_overlap = (~tw & ew_pruned).sum() / ew_pruned.sum()
        bw_overlap = (~bw & ew_pruned).sum() / ew_pruned.sum()
        assert tw_overlap > bw_overlap


@given(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_all_patterns_sparsity_property(sparsity, seed):
    rng = np.random.default_rng(seed)
    scores = [np.abs(rng.standard_normal((32, 32))) + 1e-9]
    for pattern in (
        ElementWisePattern(),
        VectorWisePattern(vector_size=8),
        BlockWisePattern(block_shape=(8, 8)),
        TileWisePattern(granularity=8),
    ):
        res = pattern.prune(scores, sparsity)
        assert res.achieved_sparsity == pytest.approx(sparsity, abs=0.1)
        assert res.masks[0].dtype == bool
