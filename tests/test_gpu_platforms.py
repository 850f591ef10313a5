"""Tests for the §VIII platform extensions: systolic array + sparse tensor core."""

import numpy as np
import pytest

from repro.formats.io import load_compiled_arrays, load_tiled, save_tiled
from repro.formats import TiledTWMatrix
from repro.gpu import dense_gemm_tc_cost, tw_gemm_cost
from repro.gpu.sparse_tensor_core import vw_sparse_tc_cost
from repro.gpu.systolic import (
    SystolicSpec,
    TPU_V3_LIKE,
    dense_gemm_systolic_cost,
    tw_gemm_systolic_cost,
)
from repro.gpu.tw_kernel import TWShapeStats

M, K, N = 8192, 768, 768


class TestSystolic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SystolicSpec(array_dim=0)
        with pytest.raises(ValueError):
            SystolicSpec(pass_setup_us=-1)

    def test_peak_flops(self):
        assert TPU_V3_LIKE.peak_flops == pytest.approx(
            2 * 128 * 128 * 0.94e9
        )

    def test_dense_pass_count(self):
        bd = dense_gemm_systolic_cost(M, N, K)
        assert bd.kernels == (-(-K // 128)) * (-(-N // 128))

    def test_dense_zero_extent(self):
        assert dense_gemm_systolic_cost(0, N, K).total_us == 0.0

    def test_tw_with_g128_accelerates(self):
        """§VIII: TW with G = array width is feasible on a TPU."""
        dense = dense_gemm_systolic_cost(M, N, K)
        shape = TWShapeStats.synthetic(K, N, 128, 0.75, seed=1)
        tw = tw_gemm_systolic_cost(M, shape)
        assert dense.total_us / tw.total_us > 1.3

    def test_row_pruning_quantised_to_array_dim(self):
        """Sub-128 depth reductions do not reduce pass counts."""
        full = TWShapeStats(k=256, n=128, granularity=128, tiles=((256, 128),))
        shaved = TWShapeStats(k=256, n=128, granularity=128, tiles=((200, 128),))
        halved = TWShapeStats(k=256, n=128, granularity=128, tiles=((128, 128),))
        t_full = tw_gemm_systolic_cost(M, full).kernels
        t_shaved = tw_gemm_systolic_cost(M, shaved).kernels
        t_halved = tw_gemm_systolic_cost(M, halved).kernels
        assert t_full == t_shaved  # 200 rows still need 2 passes
        assert t_halved == t_full // 2

    def test_small_g_wastes_the_array(self):
        """G below the array width costs full passes per tile — the reason
        the paper requires G = 128 on TPU."""
        dense = dense_gemm_systolic_cost(M, N, K)
        g32 = TWShapeStats.synthetic(K, N, 32, 0.75, seed=1)
        g128 = TWShapeStats.synthetic(K, N, 128, 0.75, seed=1)
        t32 = tw_gemm_systolic_cost(M, g32).total_us
        t128 = tw_gemm_systolic_cost(M, g128).total_us
        assert t32 > t128
        assert dense.total_us / t32 < 1.0  # G=32 is a slowdown on the TPU

    def test_gpu_beats_tpu_for_tw(self):
        """The paper's caution: no stream concurrency / fine control on the
        high-level TPU interface ⇒ TW gains are smaller than on the GPU."""
        shape = TWShapeStats.synthetic(K, N, 128, 0.75, seed=1)
        gpu_speedup = (
            dense_gemm_tc_cost(M, N, K).total_us / tw_gemm_cost(M, shape).total_us
        )
        tpu_speedup = (
            dense_gemm_systolic_cost(M, N, K).total_us
            / tw_gemm_systolic_cost(M, shape).total_us
        )
        assert tpu_speedup < gpu_speedup

    def test_validation(self):
        with pytest.raises(ValueError):
            dense_gemm_systolic_cost(-1, N, K)
        with pytest.raises(ValueError):
            tw_gemm_systolic_cost(-1, TWShapeStats.synthetic(K, N, 128, 0.5))


class TestSparseTensorCore:
    def test_vw_on_modified_hardware_reaches_1_5x(self):
        """Zhu et al. report ~1.5×: the number the paper quotes in §III-B."""
        dense = dense_gemm_tc_cost(M, N, K)
        stc = vw_sparse_tc_cost(M, K, N, sparsity=0.75)
        speedup = dense.total_us / stc.total_us
        assert 1.2 <= speedup <= 1.9

    def test_scales_with_sparsity(self):
        lo = vw_sparse_tc_cost(M, K, N, 0.5)
        hi = vw_sparse_tc_cost(M, K, N, 0.9)
        assert hi.total_us < lo.total_us

    def test_tw_software_beats_vw_hardware(self):
        """The paper's pitch: software-only TW (~2×) beats hardware-assisted
        VW (~1.5×) at equal sparsity."""
        dense = dense_gemm_tc_cost(M, N, K)
        stc = vw_sparse_tc_cost(M, K, N, 0.75)
        shape = TWShapeStats.synthetic(K, N, 128, 0.75, seed=1)
        tw = tw_gemm_cost(M, shape)
        assert dense.total_us / tw.total_us > dense.total_us / stc.total_us

    def test_zero_extent(self):
        assert vw_sparse_tc_cost(0, K, N, 0.5).kernels == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            vw_sparse_tc_cost(M, K, N, 1.5)
        with pytest.raises(ValueError):
            vw_sparse_tc_cost(M, K, N, 0.5, vector_size=0)
        with pytest.raises(ValueError):
            vw_sparse_tc_cost(-1, K, N, 0.5)


class TestSerialization:
    def test_tiled_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((16, 24))
        col_keep = rng.random(24) < 0.7
        groups = TiledTWMatrix.column_groups(col_keep, 8)
        row_masks = [rng.random(16) < 0.6 for _ in groups]
        m = TiledTWMatrix.from_masks(w, 8, col_keep, row_masks)
        save_tiled(m, tmp_path / "w.npz")
        loaded = load_tiled(tmp_path / "w.npz")
        assert loaded.shape == m.shape
        assert loaded.granularity == m.granularity
        np.testing.assert_array_equal(loaded.to_dense(), m.to_dense())

    def test_kind_mismatch_rejected(self, tmp_path):
        m = TiledTWMatrix(shape=(4, 4), granularity=2, tiles=())
        save_tiled(m, tmp_path / "w.npz")
        with pytest.raises(ValueError, match="'tiled'"):
            load_compiled_arrays(tmp_path / "w.npz")

    def test_empty_tiled_roundtrip(self, tmp_path):
        m = TiledTWMatrix(shape=(4, 4), granularity=2, tiles=())
        save_tiled(m, tmp_path / "e.npz")
        loaded = load_tiled(tmp_path / "e.npz")
        assert loaded.n_tiles == 0
        assert loaded.sparsity == 1.0
