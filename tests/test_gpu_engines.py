"""Tests for the five pricing engines (dense TC/CUDA, cuSparse, BlockSparse, TW)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats import TiledTWMatrix
from repro.gpu import (
    TWExecutionOptions,
    V100,
    bsr_gemm_cost,
    csr_spmm_cost,
    dense_gemm_cuda_cost,
    dense_gemm_tc_cost,
    tw_gemm_cost,
)
from repro.gpu.counters import normalized_counters
from repro.gpu.tensor_core import CANDIDATE_TILES, select_tile
from repro.gpu.tw_kernel import TWShapeStats

M, K, N, G = 8192, 768, 768, 128


class TestDenseEngines:
    def test_tc_faster_than_cuda(self):
        """Tensor cores are several times faster for FP16 GEMM (§VII-A
        quotes an ~8× peak ratio)."""
        tc = dense_gemm_tc_cost(M, N, K)
        cu = dense_gemm_cuda_cost(M, N, K)
        assert 3.0 < cu.total_us / tc.total_us < 10.0

    def test_monotone_in_size(self):
        small = dense_gemm_tc_cost(1024, N, K)
        large = dense_gemm_tc_cost(8192, N, K)
        assert large.total_us > small.total_us

    def test_zero_extent(self):
        assert dense_gemm_tc_cost(0, N, K).total_us == 0.0
        assert dense_gemm_cuda_cost(M, 0, K).kernels == 0

    def test_negative_extent_raises(self):
        with pytest.raises(ValueError):
            dense_gemm_tc_cost(-1, N, K)
        with pytest.raises(ValueError):
            dense_gemm_cuda_cost(M, -2, K)

    def test_counters_populated(self):
        bd = dense_gemm_tc_cost(M, N, K)
        assert bd.counters.flops == 2.0 * M * N * K
        assert bd.counters.bytes_loaded >= (M * K + K * N) * 2
        assert bd.counters.bytes_stored == M * N * 2

    @pytest.mark.parametrize("m,n,k", [(M, N, K), (64, 64, 64), (128, 3072, 768)])
    def test_default_tile_is_the_cheapest_candidate(self, m, n, k):
        chosen = select_tile(m, n, k)
        assert chosen in CANDIDATE_TILES
        default = dense_gemm_tc_cost(m, n, k).total_us
        assert default == dense_gemm_tc_cost(m, n, k, tile=chosen).total_us
        assert default == min(
            dense_gemm_tc_cost(m, n, k, tile=t).total_us for t in CANDIDATE_TILES
        )

    def test_flops_efficiency_reasonable(self):
        """Dense TC GEMM should land between 20% and 75% of peak for
        BERT-sized shapes (public cuBLAS range)."""
        bd = dense_gemm_tc_cost(M, N, K)
        assert 0.20 < bd.flops_efficiency(V100.tensor_core_flops) < 0.75


class TestCuSparse:
    def test_nnz_scaling(self):
        lo = csr_spmm_cost(M, K, N, nnz=K * N // 10)
        hi = csr_spmm_cost(M, K, N, nnz=K * N // 2)
        assert hi.total_us > lo.total_us

    def test_validation(self):
        with pytest.raises(ValueError):
            csr_spmm_cost(M, K, N, nnz=K * N + 1)
        with pytest.raises(ValueError):
            csr_spmm_cost(-1, K, N, nnz=0)

    def test_zero_work(self):
        assert csr_spmm_cost(0, K, N, 100).kernels == 0


class TestBlockSparse:
    def test_block_scaling(self):
        lo = bsr_gemm_cost(M, K, N, 32, n_kept_blocks=100)
        hi = bsr_gemm_cost(M, K, N, 32, n_kept_blocks=500)
        assert hi.total_us > lo.total_us

    def test_validation(self):
        with pytest.raises(ValueError):
            bsr_gemm_cost(M, K, N, 0, 1)
        with pytest.raises(ValueError):
            bsr_gemm_cost(M, K, N, 32, n_kept_blocks=10**9)


class TestTWShapeStats:
    def test_from_matrix(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((64, 96))
        step = tw_prune_step([np.abs(w)], 0.5, TWPruneConfig(granularity=16))
        tw = TiledTWMatrix.from_masks(w, 16, step.col_keeps[0], step.row_masks[0])
        stats = TWShapeStats.from_matrix(tw)
        assert stats.sparsity == pytest.approx(tw.sparsity)
        assert stats.n_tiles == tw.n_tiles

    def test_synthetic_hits_sparsity(self):
        for s in (0.0, 0.3, 0.6, 0.9):
            stats = TWShapeStats.synthetic(K, N, G, s, seed=0)
            assert stats.sparsity == pytest.approx(s, abs=0.05)

    def test_synthetic_full_sparsity(self):
        stats = TWShapeStats.synthetic(K, N, G, 1.0)
        assert stats.n_tiles == 0

    def test_synthetic_deterministic(self):
        a = TWShapeStats.synthetic(K, N, G, 0.5, seed=7)
        b = TWShapeStats.synthetic(K, N, G, 0.5, seed=7)
        assert a == b

    def test_width_groups(self):
        stats = TWShapeStats.synthetic(K, 768, 128, 0.5, seed=0)
        groups = stats.width_groups()
        assert sum(len(v) for v in groups.values()) == stats.n_tiles

    def test_validation(self):
        with pytest.raises(ValueError):
            TWShapeStats(k=-1, n=4, granularity=2)
        with pytest.raises(ValueError):
            TWShapeStats(k=4, n=4, granularity=2, tiles=((5, 1),))
        with pytest.raises(ValueError):
            TWShapeStats.synthetic(K, N, G, 1.5)


class TestTWEngine:
    def test_latency_decreases_with_sparsity(self):
        times = []
        for s in (0.0, 0.25, 0.5, 0.75, 0.95):
            shape = TWShapeStats.synthetic(K, N, G, s, seed=1)
            times.append(tw_gemm_cost(M, shape).total_us)
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_zero_work(self):
        shape = TWShapeStats.synthetic(K, N, G, 1.0)
        assert tw_gemm_cost(M, shape).total_us == 0.0
        assert tw_gemm_cost(0, TWShapeStats.synthetic(K, N, G, 0.5)).kernels == 0

    def test_accepts_real_matrix(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((256, 256))
        step = tw_prune_step([np.abs(w)], 0.5, TWPruneConfig(granularity=64))
        tw = TiledTWMatrix.from_masks(w, 64, step.col_keeps[0], step.row_masks[0])
        bd = tw_gemm_cost(2048, tw)
        assert bd.total_us > 0

    def test_transpose_optimization_helps(self):
        shape = TWShapeStats.synthetic(K, N, G, 0.75, seed=1)
        with_t = tw_gemm_cost(M, shape, options=TWExecutionOptions(transpose=True))
        without = tw_gemm_cost(M, shape, options=TWExecutionOptions(transpose=False))
        assert without.total_us > with_t.total_us

    def test_batching_reduces_kernels(self):
        shape = TWShapeStats.synthetic(K, N, G, 0.6, seed=1)
        batched = tw_gemm_cost(M, shape, options=TWExecutionOptions(batching=True))
        single = tw_gemm_cost(M, shape, options=TWExecutionOptions(batching=False))
        assert batched.kernels <= single.kernels

    def test_streams_help_unbatched(self):
        """Fig. 7 step 4: naive sequential kernels lose to streams."""
        shape = TWShapeStats.synthetic(K, N, G, 0.6, seed=1)
        naive = tw_gemm_cost(
            M, shape, options=TWExecutionOptions(batching=False, streams=False)
        )
        streamed = tw_gemm_cost(
            M, shape, options=TWExecutionOptions(batching=False, streams=True)
        )
        assert streamed.total_us <= naive.total_us

    def test_mask_overhead_visible_in_counters(self):
        """At zero sparsity TW moves more bytes than dense (Fig. 11)."""
        shape = TWShapeStats.synthetic(K, N, G, 0.0, seed=1)
        tw = tw_gemm_cost(M, shape)
        dense = dense_gemm_tc_cost(M, N, K)
        assert tw.counters.load_transactions > dense.counters.load_transactions

    def test_negative_m_raises(self):
        with pytest.raises(ValueError):
            tw_gemm_cost(-1, TWShapeStats.synthetic(K, N, G, 0.5))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TWExecutionOptions(ty=0)
        with pytest.raises(ValueError):
            TWExecutionOptions(dtype_bytes=0)


class TestCounters:
    def test_normalized_row(self):
        dense = dense_gemm_tc_cost(M, N, K)
        shape = TWShapeStats.synthetic(K, N, G, 0.75, seed=1)
        tw = tw_gemm_cost(M, shape)
        row = normalized_counters(tw, dense, label="TW-75")
        assert row.speedup == pytest.approx(dense.total_us / tw.total_us)
        assert row.label == "TW-75"
        assert 0 < row.flops_efficiency < 1
        d = row.as_dict()
        assert d["label"] == "TW-75"

    def test_zero_dense_raises(self):
        from repro.gpu.costmodel import CostBreakdown

        with pytest.raises(ValueError):
            normalized_counters(CostBreakdown(), CostBreakdown())


@given(st.floats(0.0, 0.99), st.sampled_from([32, 64, 128]), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_tw_cost_positive_property(sparsity, g, seed):
    shape = TWShapeStats.synthetic(K, N, g, sparsity, seed=seed)
    bd = tw_gemm_cost(M, shape)
    assert bd.total_us >= 0
    assert bd.counters.flops == 2.0 * M * shape.kept_elements
