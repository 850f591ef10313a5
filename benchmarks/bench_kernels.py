"""Microbenchmarks of the functional kernels (pytest-benchmark timings).

These measure the *host-side NumPy* kernels — useful for tracking the
library's own performance regressions, not for GPU claims (those come from
the cost models).  Shapes are small BERT-like tiles.
"""

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats import BSRMatrix, CSRMatrix, TiledTWMatrix
from repro.kernels import (
    blocked_transpose,
    bsr_left_gemm,
    csr_spmm,
    gemm,
    im2col,
    tiled_gemm,
    tw_gemm,
)

M, K, N, G = 128, 256, 256, 64


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((M, K))
    w = rng.standard_normal((K, N))
    step = tw_prune_step([np.abs(w)], 0.75, TWPruneConfig(granularity=G))
    tw = TiledTWMatrix.from_masks(w, G, step.col_keeps[0], step.row_masks[0])
    w_masked = w * step.masks[0]
    return a, w, w_masked, tw


def test_bench_dense_gemm(benchmark, operands):
    a, w, _, _ = operands
    out = benchmark(lambda: gemm(a, w))
    assert out.shape == (M, N)


def test_bench_tiled_gemm(benchmark, operands):
    a, w, _, _ = operands
    out = benchmark(lambda: tiled_gemm(a, w))
    np.testing.assert_allclose(out, a @ w, atol=1e-9)


def test_bench_tw_gemm(benchmark, operands):
    a, _, w_masked, tw = operands
    out = benchmark(lambda: tw_gemm(a, tw))
    np.testing.assert_allclose(out, a @ w_masked, atol=1e-9)


def test_bench_csr_spmm(benchmark):
    rng = np.random.default_rng(1)
    w = rng.standard_normal((K, N)) * (rng.random((K, N)) < 0.25)
    csr = CSRMatrix.from_dense(w.T)  # W^T sparse, as cuSparse would hold it
    x = rng.standard_normal((K, M))
    out = benchmark(lambda: csr_spmm(csr, x))
    assert out.shape == (N, M)


def test_bench_bsr_gemm(benchmark):
    rng = np.random.default_rng(2)
    keep = rng.random((K // 32, N // 32)) < 0.5
    w = (
        rng.standard_normal((K // 32, N // 32, 32, 32)) * keep[..., None, None]
    ).transpose(0, 2, 1, 3).reshape(K, N)
    bsr = BSRMatrix.from_dense(w, (32, 32))
    a = rng.standard_normal((M, K))
    out = benchmark(lambda: bsr_left_gemm(a, bsr))
    np.testing.assert_allclose(out, a @ w, atol=1e-9)


def test_bench_im2col(benchmark):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 16, 32, 32))
    cols = benchmark(lambda: im2col(x, 3, 3, 1, 1))
    assert cols.shape == (8 * 32 * 32, 16 * 9)


def test_bench_blocked_transpose(benchmark):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1024, 768))
    out = benchmark(lambda: blocked_transpose(a))
    assert out.shape == (768, 1024)
