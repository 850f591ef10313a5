"""Unit and property tests for CSR / CSC formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats import CSCMatrix, CSRMatrix
from repro.formats._validate import first_unsorted_segment
from repro.formats.csr import csr_structured_matmul


def random_sparse(rng, m, n, density):
    dense = rng.standard_normal((m, n))
    mask = rng.random((m, n)) < density
    return dense * mask


# --------------------------------------------------------------------- #
# CSR
# --------------------------------------------------------------------- #
class TestCSR:
    def test_roundtrip_simple(self):
        a = np.array([[0.0, 1.0, 0.0], [4.0, 0.0, 2.0], [0.0, 8.0, 0.0]])
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(csr.to_dense(), a)

    def test_paper_example_csc_figure_matrix(self):
        # The 4x4 matrix from paper Fig. 4's CSC illustration.
        a = np.array(
            [[0, 1, 0, 0], [4, 0, 2, 0], [0, 8, 0, 0], [0, 0, 0, 6]], dtype=float
        )
        csr = CSRMatrix.from_dense(a)
        assert csr.nnz == 5
        np.testing.assert_array_equal(csr.to_dense(), a)

    def test_nnz_and_sparsity(self):
        a = np.zeros((4, 5))
        a[1, 2] = 3.0
        a[3, 0] = -1.0
        csr = CSRMatrix.from_dense(a)
        assert csr.nnz == 2
        assert csr.density == pytest.approx(2 / 20)
        assert csr.sparsity == pytest.approx(18 / 20)

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((3, 4)))
        assert csr.nnz == 0
        assert csr.sparsity == 1.0
        np.testing.assert_array_equal(csr.to_dense(), np.zeros((3, 4)))

    def test_zero_dim(self):
        csr = CSRMatrix.from_dense(np.zeros((0, 4)))
        assert csr.nnz == 0
        assert csr.to_dense().shape == (0, 4)

    def test_row_nnz(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 5.0]])
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_array_equal(csr.row_nnz(), [2, 0, 1])

    def test_matmul_dense_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 13, 7, 0.3)
        b = rng.standard_normal((7, 5))
        csr = CSRMatrix.from_dense(a)
        np.testing.assert_allclose(csr.matmul_dense(b), a @ b, atol=1e-12)

    def test_matmul_shape_mismatch_raises(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            csr.matmul_dense(np.ones((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.zeros(5))

    def test_validate_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                shape=(2, 2),
                indptr=np.array([1, 1, 1], dtype=np.int64),
                indices=np.array([], dtype=np.int64),
                data=np.array([]),
            )

    def test_validate_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                shape=(2, 2),
                indptr=np.array([0, 1, 1], dtype=np.int64),
                indices=np.array([5], dtype=np.int64),
                data=np.array([1.0]),
            )

    def test_validate_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                shape=(1, 3),
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([2, 0], dtype=np.int64),
                data=np.array([1.0, 2.0]),
            )

    def test_validate_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="row 1"):
            CSRMatrix(
                shape=(2, 3),
                indptr=np.array([0, 1, 3], dtype=np.int64),
                indices=np.array([2, 1, 1], dtype=np.int64),
                data=np.array([1.0, 2.0, 3.0]),
            )

    def test_transpose(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 5, 8, 0.3)
        np.testing.assert_array_equal(CSRMatrix.from_dense(a).transpose().to_dense(), a.T)

    def test_equality(self):
        a = random_sparse(np.random.default_rng(3), 4, 4, 0.5)
        assert CSRMatrix.from_dense(a) == CSRMatrix.from_dense(a.copy())
        assert CSRMatrix.from_dense(a) != CSRMatrix.from_dense(a * 2 + 1)


# --------------------------------------------------------------------- #
# CSC
# --------------------------------------------------------------------- #
class TestCSC:
    def test_roundtrip_simple(self):
        a = np.array([[0.0, 1.0], [4.0, 0.0], [0.0, 8.0]])
        csc = CSCMatrix.from_dense(a)
        np.testing.assert_array_equal(csc.to_dense(), a)

    def test_paper_fig4_csc_encoding(self):
        # Fig. 4 step 3: value=[4,1,8,2,6], rowId=[1,0,2,1,3], colPtr=[0,1,3,4,5]
        a = np.array(
            [[0, 1, 0, 0], [4, 0, 2, 0], [0, 8, 0, 0], [0, 0, 0, 6]], dtype=float
        )
        csc = CSCMatrix.from_dense(a)
        np.testing.assert_array_equal(csc.data, [4, 1, 8, 2, 6])
        np.testing.assert_array_equal(csc.indices, [1, 0, 2, 1, 3])
        np.testing.assert_array_equal(csc.indptr, [0, 1, 3, 4, 5])

    def test_col_nnz(self):
        a = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(CSCMatrix.from_dense(a).col_nnz(), [2, 0, 1])

    def test_left_matmul_matches_numpy(self):
        rng = np.random.default_rng(4)
        w = random_sparse(rng, 9, 6, 0.25)
        x = rng.standard_normal((3, 9))
        csc = CSCMatrix.from_dense(w)
        np.testing.assert_allclose(csc.left_matmul_dense(x), x @ w, atol=1e-12)

    def test_left_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_dense(np.eye(3)).left_matmul_dense(np.ones((2, 4)))

    def test_empty(self):
        csc = CSCMatrix.from_dense(np.zeros((2, 2)))
        assert csc.nnz == 0 and csc.sparsity == 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_dense(np.zeros((2, 2, 2)))

    def test_validate_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            CSCMatrix(
                shape=(2, 2),
                indptr=np.array([0, 1, 2], dtype=np.int64),
                indices=np.array([0], dtype=np.int64),
                data=np.array([1.0]),
            )

    def test_validate_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="column 0"):
            CSCMatrix(
                shape=(3, 1),
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([2, 0], dtype=np.int64),
                data=np.array([1.0, 2.0]),
            )


# --------------------------------------------------------------------- #
# shared helpers of the compressed formats
# --------------------------------------------------------------------- #
class TestStructuredHelpers:
    def test_first_unsorted_segment_ignores_segment_boundaries(self):
        # a drop from 3 to 1 across the row 0 / row 1 boundary is no violation
        indptr = np.array([0, 2, 4])
        assert first_unsorted_segment(np.array([0, 3, 1, 2]), indptr) is None

    def test_first_unsorted_segment_names_the_bad_segment(self):
        # row 1 is empty; row 2 repeats a column
        indptr = np.array([0, 2, 2, 5])
        assert first_unsorted_segment(np.array([0, 3, 1, 4, 4]), indptr) == 2
        assert first_unsorted_segment(np.array([3, 0, 1, 4, 4]), indptr) == 0

    def test_structured_matmul_float32_matches_dense(self):
        # float32 results take the pure-NumPy segment reduction, not SciPy
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 11, 9, 0.3)
        b = rng.standard_normal((9, 4)).astype(np.float32)
        csr = CSRMatrix.from_dense(a)
        out = csr_structured_matmul(
            csr.indptr, csr.indices, csr.data.astype(np.float32), csr.shape, b, np.float32
        )
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, a.astype(np.float32) @ b, rtol=1e-5, atol=1e-5)


# --------------------------------------------------------------------- #
# property-based: round trips and linearity
# --------------------------------------------------------------------- #
dense_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(-10, 10, allow_nan=False).map(
        lambda x: 0.0 if abs(x) < 1.0 else x  # inject plenty of exact zeros
    ),
)


@given(dense_matrices)
@settings(max_examples=60, deadline=None)
def test_csr_roundtrip_property(a):
    np.testing.assert_array_equal(CSRMatrix.from_dense(a).to_dense(), a)


@given(dense_matrices)
@settings(max_examples=60, deadline=None)
def test_csc_roundtrip_property(a):
    np.testing.assert_array_equal(CSCMatrix.from_dense(a).to_dense(), a)


@given(dense_matrices, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_csr_matmul_property(a, ncols):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((a.shape[1], ncols))
    np.testing.assert_allclose(
        CSRMatrix.from_dense(a).matmul_dense(b), a @ b, atol=1e-9
    )


@given(dense_matrices)
@settings(max_examples=40, deadline=None)
def test_csr_csc_agree(a):
    assert CSRMatrix.from_dense(a).nnz == CSCMatrix.from_dense(a).nnz
    np.testing.assert_array_equal(
        CSRMatrix.from_dense(a).to_dense(), CSCMatrix.from_dense(a).to_dense()
    )
