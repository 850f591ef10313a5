"""Calibration anchor tests — pin the simulator to the paper's numbers.

These tests assert, with explicit tolerance bands, the anchor points from
the paper that the cost models were calibrated to (DESIGN.md §5).  If a
code change moves the model outside a band, the reproduction claims in
EXPERIMENTS.md no longer hold and the change must be reviewed.

Known, documented deviation: the TW break-even sparsity sits near 25–30 %
in the model versus the paper's ~40 % (the model's masked-load stall scales
smoothly with the main loop, while the real kernel has additional fixed
overheads at low sparsity we chose not to add free parameters for).  The
band below encodes the model's actual behaviour, bounded away from the
regions that would change any qualitative conclusion.
"""

import numpy as np
import pytest

from repro.gpu import (
    TWExecutionOptions,
    V100,
    bsr_gemm_cost,
    csr_spmm_cost,
    dense_gemm_cuda_cost,
    dense_gemm_tc_cost,
    tw_gemm_cost,
)
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.gpu.tw_kernel import TWShapeStats

# BERT-base weight GEMM at high-throughput inference (M = tokens in flight)
M, K, N, G = 8192, 768, 768, 128


@pytest.fixture(scope="module")
def dense_tc():
    return dense_gemm_tc_cost(M, N, K)


@pytest.fixture(scope="module")
def dense_cuda():
    return dense_gemm_cuda_cost(M, N, K)


def tw_speedup(sparsity, dense, **opts):
    shape = TWShapeStats.synthetic(K, N, G, sparsity, seed=1)
    bd = tw_gemm_cost(M, shape, options=TWExecutionOptions(**opts) if opts else None)
    return dense.total_us / bd.total_us


class TestTWAnchors:
    def test_zero_sparsity_overhead(self, dense_tc):
        """Fig. 11: TW at 0% sparsity is ~35% slower than dense (2× loads)."""
        s = tw_speedup(0.0, dense_tc)
        assert 0.65 <= s <= 0.85  # paper: 1/1.35 ≈ 0.74

    def test_load_transactions_double_at_zero(self, dense_tc):
        """Fig. 11: ~2× global load transactions at 0% sparsity."""
        shape = TWShapeStats.synthetic(K, N, G, 0.0, seed=1)
        bd = tw_gemm_cost(M, shape)
        ratio = bd.counters.load_transactions / dense_tc.counters.load_transactions
        assert 1.6 <= ratio <= 2.4

    def test_breakeven_band(self, dense_tc):
        """Paper: break-even ≈40%; model lands earlier (documented)."""
        assert tw_speedup(0.15, dense_tc) < 1.0
        assert tw_speedup(0.45, dense_tc) > 1.0

    def test_75_percent_speedup(self, dense_tc):
        """Fig. 9b / §VII-B: 2.26× at 75% sparsity with G=128."""
        s = tw_speedup(0.75, dense_tc)
        assert 1.7 <= s <= 2.6

    def test_99_percent_speedup(self, dense_tc):
        """Fig. 11: 11.6× at 99% sparsity."""
        s = tw_speedup(0.99, dense_tc)
        assert 8.0 <= s <= 15.0

    def test_smaller_g_slower(self, dense_tc):
        """Fig. 9b: G=64 delivers less speedup than G=128 at equal sparsity."""
        s128 = tw_speedup(0.75, dense_tc)
        shape64 = TWShapeStats.synthetic(K, N, 64, 0.75, seed=1)
        s64 = dense_tc.total_us / tw_gemm_cost(M, shape64).total_us
        assert s64 < s128

    def test_without_transpose_no_benefit(self, dense_tc):
        """Fig. 15: w/o the transpose optimisation the GEMM cannot benefit
        from high sparsity."""
        s = tw_speedup(0.75, dense_tc, transpose=False)
        assert s < 1.3  # roughly dense-level or worse
        assert s < 0.75 * tw_speedup(0.75, dense_tc)


class TestBaselineAnchors:
    def test_ew_slower_than_dense_below_90(self, dense_cuda):
        """Fig. 3 / §II-B: cuSparse EW loses to dense below ~90-95%."""
        for s in (0.5, 0.75, 0.85):
            bd = csr_spmm_cost(M, K, N, nnz=int((1 - s) * K * N))
            assert bd.total_us > dense_cuda.total_us

    def test_ew_crossover_beyond_90(self, dense_cuda):
        """§II-B: speedup requires very high sparsity (>90-95%)."""
        bd97 = csr_spmm_cost(M, K, N, nnz=int(0.03 * K * N))
        assert bd97.total_us < dense_cuda.total_us
        bd90 = csr_spmm_cost(M, K, N, nnz=int(0.10 * K * N))
        assert bd90.total_us > dense_cuda.total_us * 0.8

    def test_bw32_three_times_slower_at_half_sparsity(self, dense_tc):
        """Fig. 3: BlockSparse BW ~3× slower than dense-T at its
        accuracy-matched sparsity (~50-60%)."""
        nb = int(0.5 * (K // 32) * (N // 32))
        bd = bsr_gemm_cost(M, K, N, 32, nb)
        ratio = bd.total_us / dense_tc.total_us
        assert 2.0 <= ratio <= 4.0

    def test_bw64_breakeven_near_90(self, dense_tc):
        """Fig. 9b: BW 64×64 beats dense only above ~90% sparsity."""
        nb80 = int(0.2 * (K // 64) * (N // 64))
        assert bsr_gemm_cost(M, K, N, 64, nb80).total_us > dense_tc.total_us
        nb95 = int(0.05 * (K // 64) * (N // 64))
        assert bsr_gemm_cost(M, K, N, 64, nb95).total_us < dense_tc.total_us

    def test_bw_smaller_blocks_worse_than_32(self, dense_tc):
        """§IV-B: BW needs ≥32×32 blocks for performance."""
        nb8 = int(0.25 * (K // 8) * (N // 8))
        nb32 = int(0.25 * (K // 32) * (N // 32))
        t8 = bsr_gemm_cost(M, K, N, 8, nb8).total_us
        t32 = bsr_gemm_cost(M, K, N, 32, nb32).total_us
        assert t8 > t32

    def test_block_efficiency_curve_peaks_at_32(self):
        """§IV-B: BW needs a 32×32 pruning unit for high performance; the
        interpolated curve peaks there and clamps at the table ends."""
        eff = DEFAULT_CALIBRATION.block_sparse_efficiency
        (lo_size, lo_eff), (hi_size, hi_eff) = (
            DEFAULT_CALIBRATION.bs_block_efficiency[0],
            DEFAULT_CALIBRATION.bs_block_efficiency[-1],
        )
        sizes = [4, 8, 16, 24, 32, 48, 64, 128, 512]
        assert max(sizes, key=eff) == 32
        assert eff(16) < eff(24) < eff(32)
        assert eff(1) == eff(lo_size) == lo_eff
        assert eff(4 * hi_size) == hi_eff
        with pytest.raises(ValueError):
            eff(0)


class TestHeadlineShape:
    """The paper's summary comparison (§VII-C): at accuracy-matched
    sparsities, TW ≈2× on tensor cores while EW/VW/BW all slow down."""

    def test_tw_wins_baselines_lose(self, dense_tc, dense_cuda):
        # accuracy-matched sparsity assumptions (paper's regime):
        tw = tw_speedup(0.75, dense_tc)
        ew = dense_cuda.total_us / csr_spmm_cost(
            M, K, N, nnz=int(0.15 * K * N)
        ).total_us  # EW reaches 85% at matched accuracy
        bw = dense_tc.total_us / bsr_gemm_cost(
            M, K, N, 32, int(0.4 * (K // 32) * (N // 32))
        ).total_us  # BW only 60%
        assert tw > 1.5
        assert ew < 1.0
        assert bw < 1.0
