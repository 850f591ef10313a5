"""Compressed Sparse Row (CSR) matrix.

CSR is the canonical GPU sparse format: three arrays (``indptr``, ``indices``,
``data``) storing the non-zeros row by row.  The paper executes element-wise
(EW) and vector-wise (VW) pruned models through cuSparse, which consumes CSR;
our functional SpMM kernel (:mod:`repro.kernels.spmm`) and the cuSparse cost
model (:mod:`repro.gpu.cusparse`) both consume this class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats._validate import first_unsorted_segment

__all__ = ["CSRMatrix"]

#: bound on the materialised (entries × rhs-width) product intermediate of
#: the pure-NumPy segment-reduction SpMM fallback, in scalar elements
_SEGMENT_CHUNK_ELEMENTS = 2_000_000


def csr_structured_matmul(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: tuple[int, int],
    rhs: np.ndarray,
    out_dtype,
) -> np.ndarray:
    """``S @ rhs`` for any CSR-structured triple (shared CSR/CSC dispatch).

    Uses SciPy's compiled kernel when available for float64 results — it
    accumulates each segment's products sequentially in index order,
    bit-identically to the scalar references — and falls back to the
    chunked :func:`_segment_spmm` segment reduction otherwise.
    """
    try:
        import scipy.sparse as _sp
    except ImportError:
        _sp = None
    if _sp is not None and out_dtype == np.float64:
        mat = _sp.csr_matrix((data, indices, indptr), shape=shape)
        return np.asarray(mat @ np.asarray(rhs, dtype=np.float64))
    return _segment_spmm(indptr, indices, data, rhs, shape[0], out_dtype)


def _segment_spmm(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    dense_rhs: np.ndarray,
    n_out: int,
    out_dtype,
) -> np.ndarray:
    """Per-segment SpMM: gather, multiply, ``np.add.reduceat`` per row chunk.

    Chunk boundaries align to segment starts (``searchsorted`` on
    ``indptr``), so no partial segment ever crosses a chunk and the per-row
    sums need no cross-chunk accumulation.
    """
    width = dense_rhs.shape[1]
    out = np.zeros((n_out, width), dtype=out_dtype)
    chunk_nnz = max(1, _SEGMENT_CHUNK_ELEMENTS // max(width, 1))
    row = 0
    while row < n_out:
        # furthest row whose cumulative entry count stays within the chunk
        row_end = int(
            np.searchsorted(indptr, int(indptr[row]) + chunk_nnz, side="left")
        ) - 1
        row_end = min(max(row_end, row + 1), n_out)
        lo, hi = int(indptr[row]), int(indptr[row_end])
        if hi > lo:
            products = data[lo:hi, None] * dense_rhs[indices[lo:hi]]
            seg = indptr[row : row_end + 1] - lo
            non_empty = seg[1:] > seg[:-1]
            out[row:row_end][non_empty] = np.add.reduceat(
                products, seg[:-1][non_empty], axis=0
            )
        row = row_end
    return out


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR matrix.

    Attributes
    ----------
    shape:
        ``(n_rows, n_cols)`` of the logical dense matrix.
    indptr:
        ``int64[n_rows + 1]``; row ``i`` owns non-zeros
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64[nnz]`` column index of each stored value, sorted within a row.
    data:
        ``float64[nnz]`` stored values (explicit zeros are allowed but
        :meth:`from_dense` never produces them).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Compress a 2-D dense array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"CSR requires a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return cls(
            shape=dense.shape,
            indptr=indptr,
            indices=cols.astype(np.int64),
            data=dense[rows, cols].astype(np.float64),
        )

    # ------------------------------------------------------------------ #
    # validation & properties
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any structural inconsistency."""
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"negative shape {self.shape}")
        if self.indptr.shape != (n_rows + 1,):
            raise ValueError(f"indptr length {self.indptr.shape[0]} != n_rows+1={n_rows + 1}")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ValueError("indices/data length must equal indptr[-1]")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column index out of range")
        r = first_unsorted_segment(self.indices, self.indptr)
        if r is not None:
            raise ValueError(f"row {r} has unsorted or duplicate column indices")

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def density(self) -> float:
        """Fraction of entries stored (``nnz / (rows*cols)``)."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of entries *not* stored; the paper's ``S``."""
        return 1.0 - self.density

    def row_nnz(self) -> np.ndarray:
        """Per-row non-zero counts (length ``n_rows``)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------ #
    # conversion & compute
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Expand back to a dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def matmul_dense(self, dense_rhs: np.ndarray) -> np.ndarray:
        """Compute ``self @ dense_rhs`` without a per-row Python loop.

        Dispatches to SciPy's compiled CSR kernel when available — it
        accumulates each row's products sequentially in index order, i.e.
        bit-identically to ``spmm_rowwise_reference``.  Without SciPy, a
        row-chunked ``np.add.reduceat`` segment reduction runs instead
        (chunking bounds the materialised ``products`` intermediate); the
        same products are added per row, but reduceat may associate sums
        pairwise where the scalar loop is sequential, so that path is
        bit-exact on exactly-representable data and agrees to float
        rounding otherwise.
        """
        dense_rhs = np.asarray(dense_rhs)
        if dense_rhs.ndim != 2 or dense_rhs.shape[0] != self.shape[1]:
            raise ValueError(
                f"rhs shape {dense_rhs.shape} incompatible with {self.shape}"
            )
        out_dtype = np.result_type(self.data, dense_rhs)
        if self.nnz == 0:
            return np.zeros((self.shape[0], dense_rhs.shape[1]), dtype=out_dtype)
        return csr_structured_matmul(
            self.indptr, self.indices, self.data, self.shape, dense_rhs, out_dtype
        )

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, still in CSR (i.e. CSC of the original).

        Index-level re-sort: no dense round-trip.  Explicit zeros are
        dropped, matching the historical ``from_dense(to_dense().T)``
        behaviour.
        """
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        nz = self.data != 0.0
        rows, cols, data = rows[nz], self.indices[nz], self.data[nz]
        order = np.lexsort((rows, cols))
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=self.shape[1]), out=indptr[1:])
        return CSRMatrix(
            shape=(self.shape[1], self.shape[0]),
            indptr=indptr,
            indices=rows[order].astype(np.int64),
            data=data[order].astype(np.float64),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )
