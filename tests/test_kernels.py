"""Tests for the functional kernels: every execution path must agree with
dense GEMM on the mask-expanded weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import TileConfig
from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats import BSRMatrix, CSCMatrix, CSRMatrix, TiledTWMatrix
from repro.kernels import (
    bsr_left_gemm,
    csc_left_spmm,
    csr_spmm,
    gemm,
    tiled_gemm,
    tw_gemm,
)
from repro.kernels.masked import masked_gemm
from repro.kernels.spmm import spmm_rowwise_reference


def make_tw(rng, k=32, n=48, g=8, sparsity=0.6):
    w = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(w)], sparsity, TWPruneConfig(granularity=g))
    col_keep = step.col_keeps[0]
    return w, TiledTWMatrix.from_masks(w, g, col_keep, step.row_masks[0])


class TestDense:
    def test_gemm_reference(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        np.testing.assert_allclose(gemm(a, b), a @ b)

    def test_gemm_alpha_beta(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            gemm(a, b, alpha=2.0, beta=0.5, c=c), 2 * (a @ b) + 0.5 * c
        )

    def test_gemm_beta_requires_c(self):
        with pytest.raises(ValueError):
            gemm(np.eye(2), np.eye(2), beta=1.0)

    def test_gemm_shape_errors(self):
        with pytest.raises(ValueError):
            gemm(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            gemm(np.ones(3), np.ones((3, 2)))

    def test_tiled_gemm_matches_reference(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((37, 53)), rng.standard_normal((53, 29))
        cfg = TileConfig(ty=16, g=8, tz=8, warp_m=8, warp_n=8)
        np.testing.assert_allclose(tiled_gemm(a, b, cfg), a @ b, atol=1e-10)

    def test_tiled_gemm_default_config(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        np.testing.assert_allclose(tiled_gemm(a, b), a @ b, atol=1e-10)

    def test_tile_config_validation(self):
        with pytest.raises(ValueError):
            TileConfig(ty=0)
        with pytest.raises(ValueError):
            TileConfig(ty=16, warp_m=32)

    def test_tile_config_grid(self):
        cfg = TileConfig(ty=128, g=128)
        assert cfg.grid(256, 384) == (2, 3)
        assert cfg.n_blocks(300, 129) == 3 * 2
        assert cfg.mma_steps(65) == 3  # tz=32


class TestTWGemm:
    def test_matches_dense_on_masked_weights(self):
        rng = np.random.default_rng(4)
        w, tw = make_tw(rng)
        a = rng.standard_normal((11, 32))
        expected = a @ tw.to_dense()
        np.testing.assert_allclose(tw_gemm(a, tw), expected, atol=1e-10)

    def test_pruned_columns_are_exact_zero(self):
        rng = np.random.default_rng(5)
        w, tw = make_tw(rng, sparsity=0.8)
        a = rng.standard_normal((6, 32))
        out = tw_gemm(a, tw)
        pruned_cols = ~tw.element_mask().any(axis=0)
        assert np.all(out[:, pruned_cols] == 0.0)

    def test_zero_sparsity_equals_dense(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((16, 24))
        tw = TiledTWMatrix.from_masks(
            w, 8, np.ones(24, dtype=bool), [np.ones(16, dtype=bool)] * 3
        )
        a = rng.standard_normal((5, 16))
        np.testing.assert_allclose(tw_gemm(a, tw), a @ w, atol=1e-10)

    def test_fully_pruned_gives_zeros(self):
        w = np.ones((8, 8))
        tw = TiledTWMatrix.from_masks(w, 4, np.zeros(8, dtype=bool), [])
        out = tw_gemm(np.ones((3, 8)), tw)
        np.testing.assert_array_equal(out, np.zeros((3, 8)))

    def test_masked_gemm_accumulates(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 6))
        mask_k = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        cols = np.array([1, 3])
        b_compact = rng.standard_normal((4, 2))
        out = np.ones((4, 5))
        masked_gemm(a, b_compact, mask_k, cols, out)
        expected = np.ones((4, 5))
        expected[:, [1, 3]] += a[:, np.flatnonzero(mask_k)] @ b_compact
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_masked_gemm_validation(self):
        a = np.ones((2, 4))
        with pytest.raises(ValueError):
            masked_gemm(a, np.ones((2, 1)), np.ones(3, dtype=bool), [0], np.zeros((2, 4)))
        with pytest.raises(ValueError):
            masked_gemm(a, np.ones((3, 1)), np.ones(4, dtype=bool), [0], np.zeros((2, 4)))

    def test_k_mismatch_raises(self):
        rng = np.random.default_rng(9)
        _, tw = make_tw(rng)
        with pytest.raises(ValueError):
            tw_gemm(rng.standard_normal((3, 31)), tw)


class TestSpmm:
    def test_csr_spmm_matches_dense(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((16, 12)) * (rng.random((16, 12)) < 0.3)
        x = rng.standard_normal((12, 5))
        np.testing.assert_allclose(csr_spmm(CSRMatrix.from_dense(w), x), w @ x, atol=1e-10)

    def test_csc_left_spmm_matches_dense(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((12, 16)) * (rng.random((12, 16)) < 0.3)
        x = rng.standard_normal((5, 12))
        np.testing.assert_allclose(csc_left_spmm(x, CSCMatrix.from_dense(w)), x @ w, atol=1e-10)

    def test_rowwise_reference_agrees(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((10, 8)) * (rng.random((10, 8)) < 0.4)
        x = rng.standard_normal((8, 3))
        csr = CSRMatrix.from_dense(w)
        np.testing.assert_allclose(
            spmm_rowwise_reference(csr, x), csr_spmm(csr, x), atol=1e-10
        )

    def test_rowwise_reference_shape_check(self):
        with pytest.raises(ValueError):
            spmm_rowwise_reference(CSRMatrix.from_dense(np.eye(3)), np.ones((4, 2)))


class TestBlockSparse:
    def test_bsr_gemm_matches_dense(self):
        rng = np.random.default_rng(14)
        keep = rng.random((4, 6)) < 0.5
        w = (rng.standard_normal((4, 6, 8, 8)) * keep[:, :, None, None]).transpose(
            0, 2, 1, 3
        ).reshape(32, 48)
        x = rng.standard_normal((7, 32))
        np.testing.assert_allclose(
            bsr_left_gemm(x, BSRMatrix.from_dense(w, (8, 8))), x @ w, atol=1e-10
        )


@given(
    st.integers(1, 16),
    st.integers(1, 24),
    st.integers(1, 24),
    st.sampled_from([2, 4, 8]),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_tw_gemm_equivalence_property(m, k, n, g, sparsity, seed):
    """The central correctness property: TW execution ≡ dense on masked W."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, n))
    step = tw_prune_step(
        [np.abs(w)], sparsity,
        TWPruneConfig(granularity=g, min_keep_cols=0, min_keep_rows=0),
    )
    tw = TiledTWMatrix.from_masks(w, g, step.col_keeps[0], step.row_masks[0])
    a = rng.standard_normal((m, k))
    expected = a @ (w * step.masks[0])
    np.testing.assert_allclose(tw_gemm(a, tw), expected, atol=1e-9)


@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_tiled_gemm_property(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    cfg = TileConfig(ty=4, g=4, tz=4, warp_m=2, warp_n=2)
    np.testing.assert_allclose(tiled_gemm(a, b, cfg), a @ b, atol=1e-9)
