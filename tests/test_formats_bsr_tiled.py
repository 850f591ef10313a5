"""Unit and property tests for BSR and TiledTW formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import BSRMatrix, TiledTWMatrix


def block_sparse_dense(rng, grid, block, density):
    """Dense matrix whose zero structure is exactly block-granular."""
    nbr, nbc = grid
    br, bc = block
    keep = rng.random((nbr, nbc)) < density
    blocks = rng.standard_normal((nbr, nbc, br, bc))
    # guarantee kept blocks are non-zero somewhere
    blocks[..., 0, 0] = np.where(blocks[..., 0, 0] == 0, 1.0, blocks[..., 0, 0])
    blocks *= keep[:, :, None, None]
    return blocks.transpose(0, 2, 1, 3).reshape(nbr * br, nbc * bc), keep


class TestBSR:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        dense, _ = block_sparse_dense(rng, (3, 4), (2, 2), 0.5)
        bsr = BSRMatrix.from_dense(dense, (2, 2))
        np.testing.assert_array_equal(bsr.to_dense(), dense)

    def test_block_counts(self):
        rng = np.random.default_rng(1)
        dense, keep = block_sparse_dense(rng, (4, 4), (3, 3), 0.4)
        bsr = BSRMatrix.from_dense(dense, (3, 3))
        assert bsr.n_blocks == int(keep.sum())
        assert bsr.grid_shape == (4, 4)

    def test_dense_matrix_all_blocks(self):
        dense = np.ones((4, 6))
        bsr = BSRMatrix.from_dense(dense, (2, 3))
        assert bsr.n_blocks == 4

    def test_empty_matrix_no_blocks(self):
        bsr = BSRMatrix.from_dense(np.zeros((4, 4)), (2, 2))
        assert bsr.n_blocks == 0
        assert bsr.sparsity == 1.0

    def test_indivisible_shape_raises(self):
        with pytest.raises(ValueError):
            BSRMatrix.from_dense(np.zeros((5, 4)), (2, 2))

    def test_bad_block_shape_raises(self):
        with pytest.raises(ValueError):
            BSRMatrix.from_dense(np.zeros((4, 4)), (0, 2))

    def test_left_matmul_matches_numpy(self):
        rng = np.random.default_rng(2)
        dense, _ = block_sparse_dense(rng, (3, 5), (4, 4), 0.5)
        x = rng.standard_normal((6, 12))
        bsr = BSRMatrix.from_dense(dense, (4, 4))
        np.testing.assert_allclose(bsr.left_matmul_dense(x), x @ dense, atol=1e-12)

    def test_left_matmul_shape_mismatch(self):
        bsr = BSRMatrix.from_dense(np.ones((4, 4)), (2, 2))
        with pytest.raises(ValueError):
            bsr.left_matmul_dense(np.ones((2, 6)))

    def test_element_sparsity_counts_intrablock_zeros(self):
        dense = np.zeros((2, 2))
        dense[0, 0] = 1.0
        bsr = BSRMatrix.from_dense(dense, (2, 2))
        assert bsr.n_blocks == 1
        assert bsr.sparsity == pytest.approx(0.75)

    def test_validate_rejects_unsorted_block_columns(self):
        with pytest.raises(ValueError, match="block row 0"):
            BSRMatrix(
                shape=(2, 4),
                block_shape=(2, 2),
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([1, 0], dtype=np.int64),
                blocks=np.ones((2, 2, 2)),
            )

    def test_validate_rejects_blocks_of_wrong_shape(self):
        with pytest.raises(ValueError, match="blocks shape"):
            BSRMatrix(
                shape=(2, 4),
                block_shape=(2, 2),
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([1], dtype=np.int64),
                blocks=np.ones((1, 2, 3)),
            )

    def test_block_row_counts(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0  # block (0,0)
        bsr = BSRMatrix.from_dense(dense, (2, 2))
        np.testing.assert_array_equal(bsr.block_row_counts(), [1, 0])


class TestTiledTW:
    def _make(self, rng, k=8, n=12, g=4, col_density=0.7, row_density=0.6, reorganize=True):
        dense = rng.standard_normal((k, n))
        col_keep = rng.random(n) < col_density
        groups = TiledTWMatrix.column_groups(col_keep, g, reorganize=reorganize)
        row_masks = [rng.random(k) < row_density for _ in groups]
        tw = TiledTWMatrix.from_masks(
            dense, g, col_keep, row_masks, reorganize=reorganize
        )
        return dense, col_keep, row_masks, tw

    def test_roundtrip_against_element_mask(self):
        rng = np.random.default_rng(0)
        dense, _, _, tw = self._make(rng)
        np.testing.assert_array_equal(tw.to_dense(), dense * tw.element_mask())

    def test_reorganized_widths_uniform_except_last(self):
        rng = np.random.default_rng(1)
        _, col_keep, _, tw = self._make(rng, n=20, g=4)
        widths = tw.kept_widths()
        survivors = int(col_keep.sum())
        assert widths.sum() == survivors
        if len(widths) > 1:
            assert all(w == 4 for w in widths[:-1])

    def test_fixed_boundary_widths_ragged(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((4, 8))
        col_keep = np.array([1, 1, 0, 0, 1, 1, 1, 1], dtype=bool)
        groups = TiledTWMatrix.column_groups(col_keep, 4, reorganize=False)
        assert [g.size for g in groups] == [2, 4]
        row_masks = [np.ones(4, dtype=bool)] * 2
        tw = TiledTWMatrix.from_masks(dense, 4, col_keep, row_masks, reorganize=False)
        np.testing.assert_array_equal(tw.kept_widths(), [2, 4])

    def test_column_groups_drop_empty_panels(self):
        col_keep = np.array([0, 0, 0, 0, 1, 1, 0, 0], dtype=bool)
        groups = TiledTWMatrix.column_groups(col_keep, 4, reorganize=False)
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], [4, 5])

    def test_sparsity_accounting(self):
        rng = np.random.default_rng(3)
        dense, _, _, tw = self._make(rng, k=10, n=16, g=4)
        mask = tw.element_mask()
        assert tw.sparsity == pytest.approx(1.0 - mask.mean())

    def test_paper_fig4_reorganization_example(self):
        # Paper §IV-A: 4 tiles of width G, column-pruned by 4,3,2,1 columns.
        # After reorganisation the widths must be G, G, G, G-10.
        g = 16
        n = 4 * g
        rng = np.random.default_rng(4)
        col_keep = np.ones(n, dtype=bool)
        for tile, n_pruned in enumerate([4, 3, 2, 1]):
            pruned = rng.choice(np.arange(tile * g, (tile + 1) * g), n_pruned, replace=False)
            col_keep[pruned] = False
        groups = TiledTWMatrix.column_groups(col_keep, g, reorganize=True)
        assert [grp.size for grp in groups] == [g, g, g, g - 10]

    def test_overlapping_tiles_rejected(self):
        from repro.formats.tiled import TWTile

        k = 4
        tile = TWTile(
            col_indices=np.array([0, 1], dtype=np.int64),
            mask_k=np.ones(k, dtype=bool),
            data=np.zeros((k, 2)),
        )
        with pytest.raises(ValueError):
            TiledTWMatrix(shape=(k, 4), granularity=2, tiles=(tile, tile))

    def test_tile_width_exceeding_granularity_rejected(self):
        from repro.formats.tiled import TWTile

        tile = TWTile(
            col_indices=np.arange(3, dtype=np.int64),
            mask_k=np.ones(2, dtype=bool),
            data=np.zeros((2, 3)),
        )
        with pytest.raises(ValueError):
            TiledTWMatrix(shape=(2, 4), granularity=2, tiles=(tile,))

    def test_tile_data_shape_must_match_masks(self):
        from repro.formats.tiled import TWTile

        with pytest.raises(ValueError):
            TWTile(
                col_indices=np.arange(2, dtype=np.int64),
                mask_k=np.ones(3, dtype=bool),
                data=np.zeros((2, 2)),
            )

    def test_row_indices_and_kept_depths(self):
        rng = np.random.default_rng(7)
        _, _, _, tw = self._make(rng, n=16, g=4)
        assert tw.n_tiles > 1
        for t, depth in zip(tw.tiles, tw.kept_depths()):
            np.testing.assert_array_equal(t.row_indices(), np.flatnonzero(t.mask_k))
            assert depth == t.kept_k == t.row_indices().size

    def test_out_bias_in_unowned_column_rejected(self):
        from repro.formats.tiled import TWTile

        tile = TWTile(
            col_indices=np.array([0, 1], dtype=np.int64),
            mask_k=np.ones(2, dtype=bool),
            data=np.zeros((2, 2)),
        )
        # column 3 belongs to no tile, so no GEMM writes a bias there
        TiledTWMatrix(shape=(2, 4), granularity=2, tiles=(tile,),
                      out_bias=np.array([1.0, 2.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="no tile owns"):
            TiledTWMatrix(shape=(2, 4), granularity=2, tiles=(tile,),
                          out_bias=np.array([1.0, 2.0, 0.0, 3.0]))
        with pytest.raises(ValueError, match="out_bias shape"):
            TiledTWMatrix(shape=(2, 4), granularity=2, tiles=(tile,),
                          out_bias=np.zeros(3))

    def test_width_groups_batching_key(self):
        rng = np.random.default_rng(5)
        _, _, _, tw = self._make(rng, n=24, g=4)
        groups = tw.width_groups()
        assert sum(len(v) for v in groups.values()) == tw.n_tiles
        for width, idxs in groups.items():
            for i in idxs:
                assert tw.tiles[i].kept_n == width

    def test_load_imbalance_balanced_case(self):
        dense = np.ones((4, 8))
        col_keep = np.ones(8, dtype=bool)
        row_masks = [np.ones(4, dtype=bool)] * 2
        tw = TiledTWMatrix.from_masks(dense, 4, col_keep, row_masks)
        assert tw.load_imbalance() == pytest.approx(1.0)

    def test_load_imbalance_skewed_case(self):
        dense = np.ones((4, 8))
        col_keep = np.ones(8, dtype=bool)
        row_masks = [np.ones(4, dtype=bool), np.array([1, 0, 0, 0], dtype=bool)]
        tw = TiledTWMatrix.from_masks(dense, 4, col_keep, row_masks)
        assert tw.load_imbalance() > 1.0

    def test_memory_bytes_scaling(self):
        rng = np.random.default_rng(6)
        _, _, _, tw = self._make(rng)
        assert tw.memory_bytes(dtype_bytes=4) > tw.memory_bytes(dtype_bytes=2) / 2

    def test_all_columns_pruned(self):
        dense = np.ones((4, 8))
        col_keep = np.zeros(8, dtype=bool)
        tw = TiledTWMatrix.from_masks(dense, 4, col_keep, [])
        assert tw.n_tiles == 0
        assert tw.sparsity == 1.0
        np.testing.assert_array_equal(tw.to_dense(), np.zeros((4, 8)))

    def test_mismatched_row_mask_count_raises(self):
        dense = np.ones((4, 8))
        col_keep = np.ones(8, dtype=bool)
        with pytest.raises(ValueError):
            TiledTWMatrix.from_masks(dense, 4, col_keep, [np.ones(4, dtype=bool)])


@given(
    st.integers(2, 10),
    st.integers(2, 16),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_tiled_roundtrip_property(k, n, g, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((k, n))
    col_keep = rng.random(n) < 0.7
    groups = TiledTWMatrix.column_groups(col_keep, g)
    row_masks = [rng.random(k) < 0.6 for _ in groups]
    tw = TiledTWMatrix.from_masks(dense, g, col_keep, row_masks)
    # every kept element survives; every pruned element is zero
    mask = tw.element_mask()
    np.testing.assert_array_equal(tw.to_dense(), dense * mask)
    # column accounting: a column is present iff kept and owned by some tile
    assert tw.kept_columns == int(col_keep.sum())
    # sparsity in [0, 1]
    assert 0.0 <= tw.sparsity <= 1.0


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_bsr_roundtrip_property(nbr, nbc, seed):
    rng = np.random.default_rng(seed)
    dense, _ = block_sparse_dense(rng, (nbr, nbc), (2, 3), 0.5)
    bsr = BSRMatrix.from_dense(dense, (2, 3))
    np.testing.assert_array_equal(bsr.to_dense(), dense)
    x = rng.standard_normal((3, dense.shape[0]))
    np.testing.assert_allclose(bsr.left_matmul_dense(x), x @ dense, atol=1e-9)
