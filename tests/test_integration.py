"""Cross-module integration tests and failure injection.

These exercise whole pipelines (prune → compact → execute → price →
serialize) and adversarial inputs (NaN weights, corrupt masks, degenerate
shapes) that unit tests do not reach.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayModel,
    GradualSchedule,
    ImportanceConfig,
    TWPruneConfig,
    TWPruner,
)
from repro.core.masks import validate_tw_mask
from repro.core.tile_sparsity import tw_prune_step
from repro.formats import TiledTWMatrix
from repro.formats.io import load_tiled, save_tiled
from repro.gpu import dense_gemm_tc_cost, tw_gemm_cost
from repro.kernels import tw_gemm
from repro.nn.layers import Linear, Sequential
from repro.nn.tensor import Tensor


class TestFullMatrixPipeline:
    """prune → compact → execute → price → serialize → reload → execute."""

    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        # paper-scale geometry: small granularities price as slowdowns
        # (Fig. 9b), so the pricing assertion needs G=128 at BERT dims
        k, n, g = 768, 768, 128
        weight = rng.standard_normal((k, n))

        model = ArrayModel([weight.copy()])
        pruner = TWPruner(
            TWPruneConfig(granularity=g),
            GradualSchedule(target=0.7, n_stages=3),
            ImportanceConfig(method="magnitude"),
        )
        result = pruner.prune(model)
        validate_tw_mask(result.masks[0], g)

        pruned_weight = model.weight_matrices()[0]
        tw = TiledTWMatrix.from_masks(
            pruned_weight, g, result.step.col_keeps[0], result.step.row_masks[0]
        )
        a = rng.standard_normal((8, k))
        expected = a @ pruned_weight
        np.testing.assert_allclose(tw_gemm(a, tw), expected, atol=1e-10)

        # price: pruned must beat dense at 70%
        dense_us = dense_gemm_tc_cost(8192, n, k).total_us
        tw_us = tw_gemm_cost(8192, tw).total_us
        assert tw_us < dense_us

        # serialize/reload preserves execution semantics
        save_tiled(tw, tmp_path / "w.npz")
        reloaded = load_tiled(tmp_path / "w.npz")
        np.testing.assert_allclose(tw_gemm(a, reloaded), expected, atol=1e-10)


class TestFailureInjection:
    def test_nan_weights_do_not_crash_pruner(self):
        """NaN scores must either raise or produce a valid mask — never
        silently emit NaN-sized structures."""
        w = np.ones((16, 16))
        w[3, 3] = np.nan
        step = tw_prune_step([np.abs(w)], 0.5, TWPruneConfig(granularity=4))
        assert step.masks[0].dtype == bool
        assert 0.0 <= step.achieved_sparsity <= 1.0

    def test_inf_scores_survive(self):
        s = np.ones((8, 8))
        s[0, :] = np.inf  # apriori-style protected scores
        step = tw_prune_step([s], 0.5, TWPruneConfig(granularity=4))
        assert step.masks[0][0].any()  # the protected row's columns survive

    def test_corrupt_tile_rejected(self):
        from repro.formats.tiled import TWTile

        with pytest.raises(ValueError):
            TWTile(
                col_indices=np.array([3, 1], dtype=np.int64),  # unsorted
                mask_k=np.ones(4, dtype=bool),
                data=np.zeros((4, 2)),
            )

    def test_mask_weight_shape_mismatch(self):
        model = ArrayModel([np.ones((4, 4))])
        with pytest.raises(ValueError):
            model.apply_masks([np.ones((4, 5), dtype=bool)])

    def test_degenerate_single_column_matrix(self):
        step = tw_prune_step(
            [np.abs(np.random.default_rng(0).standard_normal((32, 1)))],
            0.5,
            TWPruneConfig(granularity=8),
        )
        validate_tw_mask(step.masks[0], 8)

    def test_degenerate_single_row_matrix(self):
        step = tw_prune_step(
            [np.abs(np.random.default_rng(0).standard_normal((1, 32)))],
            0.5,
            TWPruneConfig(granularity=8),
        )
        assert step.masks[0].shape == (1, 32)

    def test_granularity_larger_than_matrix(self):
        step = tw_prune_step(
            [np.ones((8, 8))], 0.5, TWPruneConfig(granularity=64)
        )
        validate_tw_mask(step.masks[0], 64)

    def test_tw_gemm_on_empty_activation_batch(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((8, 8))
        tw = TiledTWMatrix.from_masks(
            w, 4, np.ones(8, dtype=bool), [np.ones(8, dtype=bool)] * 2
        )
        out = tw_gemm(np.zeros((0, 8)), tw)
        assert out.shape == (0, 8)

    def test_state_arrays_shape_mismatch_rejected(self):
        net = Sequential(Linear(4, 4), Linear(4, 2))
        state = net.state_arrays()
        with pytest.raises(ValueError):
            net.load_state_arrays(state[:-1])
        bad = [np.zeros((5, 5))] + state[1:]
        with pytest.raises(ValueError):
            net.load_state_arrays(bad)

    def test_state_roundtrip_preserves_forward(self):
        rng = np.random.default_rng(2)
        net = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
        x = Tensor(rng.standard_normal((3, 4)))
        before = net(x).data.copy()
        state = net.state_arrays()
        for p in net.parameters():
            p.data[...] = 0.0
        net.load_state_arrays(state)
        np.testing.assert_array_equal(net(x).data, before)


class TestCrossEngineConsistency:
    """The same TW geometry must price consistently across engines."""

    def test_sparser_is_never_slower_anywhere(self):
        from repro.gpu.systolic import tw_gemm_systolic_cost
        from repro.gpu.tw_kernel import TWExecutionOptions, TWShapeStats

        lo = TWShapeStats.synthetic(768, 768, 128, 0.4, seed=3)
        hi = TWShapeStats.synthetic(768, 768, 128, 0.9, seed=3)
        for price in (
            lambda s: tw_gemm_cost(8192, s).total_us,
            lambda s: tw_gemm_cost(
                8192, s, options=TWExecutionOptions(engine="cuda_core")
            ).total_us,
            lambda s: tw_gemm_systolic_cost(8192, s).total_us,
        ):
            assert price(hi) <= price(lo)

    def test_flops_counters_engine_independent(self):
        from repro.gpu.tw_kernel import TWExecutionOptions, TWShapeStats

        shape = TWShapeStats.synthetic(768, 768, 128, 0.6, seed=4)
        tc = tw_gemm_cost(1024, shape)
        cu = tw_gemm_cost(
            1024, shape, options=TWExecutionOptions(engine="cuda_core")
        )
        assert tc.counters.flops == cu.counters.flops
