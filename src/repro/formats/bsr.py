"""Block Sparse Row (BSR) matrix.

BSR stores a matrix as a sparse grid of fixed-size dense blocks.  It is the
storage format behind the paper's block-wise (BW) baseline: the BlockSparse
library [Narang+ 2017, Tillet 2020] keeps only the surviving ``B×B`` blocks
and multiplies them on tensor cores.  The block-size constraint is exactly
why BW loses accuracy (paper Fig. 6/9a) while remaining hardware-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats._validate import first_unsorted_segment

__all__ = ["BSRMatrix"]


@dataclass(frozen=True)
class BSRMatrix:
    """An immutable BSR matrix of uniform ``block_shape`` dense blocks.

    Attributes
    ----------
    shape:
        Logical dense shape ``(n_rows, n_cols)``; each dimension must be an
        exact multiple of the corresponding block dimension.
    block_shape:
        ``(br, bc)`` size of every stored block.
    indptr:
        ``int64[n_block_rows + 1]``; block-row ``i`` owns blocks
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64[n_blocks]`` block-column index of each stored block, sorted
        within a block row.
    blocks:
        ``float64[n_blocks, br, bc]`` stored dense blocks.
    """

    shape: tuple[int, int]
    block_shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, block_shape: tuple[int, int]
    ) -> "BSRMatrix":
        """Compress a dense array, keeping blocks with any non-zero entry."""
        dense = np.asarray(dense, dtype=np.float64)
        br, bc = block_shape
        if dense.ndim != 2:
            raise ValueError(f"BSR requires a 2-D array, got ndim={dense.ndim}")
        if br <= 0 or bc <= 0:
            raise ValueError(f"block_shape must be positive, got {block_shape}")
        n_rows, n_cols = dense.shape
        if n_rows % br or n_cols % bc:
            raise ValueError(
                f"shape {dense.shape} not divisible by block_shape {block_shape}"
            )
        nbr, nbc = n_rows // br, n_cols // bc
        # (nbr, nbc, br, bc) view of the matrix as a grid of blocks
        grid = dense.reshape(nbr, br, nbc, bc).transpose(0, 2, 1, 3)
        keep = np.any(grid != 0.0, axis=(2, 3))
        rows, cols = np.nonzero(keep)
        indptr = np.zeros(nbr + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nbr), out=indptr[1:])
        return cls(
            shape=dense.shape,
            block_shape=(br, bc),
            indptr=indptr,
            indices=cols.astype(np.int64),
            blocks=grid[rows, cols].copy(),
        )

    # ------------------------------------------------------------------ #
    # validation & properties
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any structural inconsistency."""
        n_rows, n_cols = self.shape
        br, bc = self.block_shape
        if br <= 0 or bc <= 0:
            raise ValueError(f"block_shape must be positive, got {self.block_shape}")
        if n_rows % br or n_cols % bc:
            raise ValueError(
                f"shape {self.shape} not divisible by block_shape {self.block_shape}"
            )
        nbr, nbc = n_rows // br, n_cols // bc
        if self.indptr.shape != (nbr + 1,):
            raise ValueError("indptr length must equal n_block_rows + 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        nb = int(self.indptr[-1])
        if self.indices.shape != (nb,):
            raise ValueError("indices length must equal indptr[-1]")
        if self.blocks.shape != (nb, br, bc):
            raise ValueError(
                f"blocks shape {self.blocks.shape} != ({nb}, {br}, {bc})"
            )
        if nb and (self.indices.min() < 0 or self.indices.max() >= nbc):
            raise ValueError("block-column index out of range")
        r = first_unsorted_segment(self.indices, self.indptr)
        if r is not None:
            raise ValueError(f"block row {r} has unsorted or duplicate indices")

    @property
    def n_blocks(self) -> int:
        """Number of stored dense blocks."""
        return int(self.indptr[-1])

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Shape of the block grid ``(n_block_rows, n_block_cols)``."""
        return (self.shape[0] // self.block_shape[0], self.shape[1] // self.block_shape[1])

    @property
    def nnz(self) -> int:
        """Number of non-zero scalar entries inside stored blocks."""
        return int(np.count_nonzero(self.blocks))

    @property
    def sparsity(self) -> float:
        """Element-level sparsity (zeros inside stored blocks count as zero)."""
        total = self.shape[0] * self.shape[1]
        return 1.0 - self.nnz / total if total else 0.0

    def block_row_counts(self) -> np.ndarray:
        """Per-block-row stored-block counts (load-balance statistic)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------ #
    # conversion & compute
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Expand back to a dense ``float64`` array."""
        br, bc = self.block_shape
        nbr, nbc = self.grid_shape
        grid = np.zeros((nbr, nbc, br, bc), dtype=np.float64)
        rows = np.repeat(np.arange(nbr), self.block_row_counts())
        grid[rows, self.indices] = self.blocks
        return grid.transpose(0, 2, 1, 3).reshape(self.shape)

    def left_matmul_dense(self, dense_lhs: np.ndarray) -> np.ndarray:
        """Compute ``dense_lhs @ self`` block by block (functional reference).

        Mirrors the BlockSparse execution order: every stored block ``(I, J)``
        contributes ``lhs[:, I·br:(I+1)·br] @ block`` to output panel ``J``.
        """
        dense_lhs = np.asarray(dense_lhs)
        if dense_lhs.ndim != 2 or dense_lhs.shape[1] != self.shape[0]:
            raise ValueError(
                f"lhs shape {dense_lhs.shape} incompatible with {self.shape}"
            )
        br, bc = self.block_shape
        out = np.zeros((dense_lhs.shape[0], self.shape[1]), dtype=np.float64)
        nbr = self.grid_shape[0]
        for block_row in range(nbr):
            lhs_panel = dense_lhs[:, block_row * br : (block_row + 1) * br]
            for k in range(self.indptr[block_row], self.indptr[block_row + 1]):
                j = self.indices[k]
                out[:, j * bc : (j + 1) * bc] += lhs_panel @ self.blocks[k]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.block_shape == other.block_shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.blocks, other.blocks)
        )
