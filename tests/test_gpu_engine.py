"""Tests for the forward-pass pricer: transpose placement, layer plans,
the inference engine and its one sparse-vs-dense loop (``gemm_totals``)."""

import numpy as np
import pytest

import repro
from repro.gpu.engine import (
    EngineConfig,
    InferenceEngine,
    LayerPlan,
    TransposePlan,
    baseline_engine_config,
    engine_for_dtype,
    transpose_cost,
)
from repro.gpu.tw_kernel import TWShapeStats
from repro.models.registry import GemmShape, bert_base_gemm_shapes


class TestTransposePlan:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            TransposePlan("sometimes")

    def test_transpose_cost_scaling(self):
        one = transpose_cost(1024, 768, 1)
        two = transpose_cost(1024, 768, 2)
        assert two.total_us > one.total_us
        assert two.kernels == 2

    def test_transpose_cost_zero(self):
        assert transpose_cost(0, 768, 1).total_us == 0.0
        assert transpose_cost(1024, 768, 0).kernels == 0

    def test_transpose_cost_validation(self):
        with pytest.raises(ValueError):
            transpose_cost(-1, 2, 1)


class TestEngineChoice:
    @pytest.mark.parametrize("dtype,engine", [
        ("float16", "tensor_core"),
        ("int8", "tensor_core"),
        ("float32", "cuda_core"),
        ("float64", "cuda_core"),
        ("", "cuda_core"),
    ])
    def test_engine_for_dtype(self, dtype, engine):
        assert engine_for_dtype(dtype) == engine

    def test_engine_for_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="bfloat16"):
            engine_for_dtype("bfloat16")

    def test_baseline_engine_pairs_cusparse_patterns_with_cuda_cores(self):
        tc = EngineConfig(engine="tensor_core")
        for pattern in ("ew", "vw"):
            assert baseline_engine_config(pattern, tc) == EngineConfig(engine="cuda_core")
        for pattern in ("tw", "bw", "dense"):
            assert baseline_engine_config(pattern, tc) is tc


class TestLayerPlan:
    def test_validation(self):
        shape = GemmShape(8, 8, 8)
        with pytest.raises(ValueError):
            LayerPlan(shape, pattern="nw")
        with pytest.raises(ValueError):
            LayerPlan(shape, sparsity=1.5)
        with pytest.raises(ValueError):
            LayerPlan(shape, pattern="tew", tew_delta=1.0)


class TestInferenceEngine:
    def setup_method(self):
        self.engine = InferenceEngine()
        self.shapes = bert_base_gemm_shapes(batch=64, seq=128)

    def _plans(self, pattern, sparsity, **kw):
        return [LayerPlan(s, pattern=pattern, sparsity=sparsity, **kw) for s in self.shapes]

    def test_dense_end_to_end(self):
        report = self.engine.end_to_end("bert", self._plans("dense", 0.0), EngineConfig())
        assert report.total_us > 0
        assert report.transpose_us == 0.0  # dense needs no transposes
        fr = report.fractions()
        assert fr["others"] == pytest.approx(0.29, abs=0.01)  # fused non-GEMM share

    def test_unfused_nongemm_share(self):
        report = self.engine.end_to_end(
            "bert", self._plans("dense", 0.0), EngineConfig(fusion=False)
        )
        assert report.fractions()["others"] == pytest.approx(0.39, abs=0.01)

    def test_tw_end_to_end_speedup(self):
        """GEMM-only ~2×, end-to-end less (Amdahl on non-GEMM) — Fig. 15."""
        cfg = EngineConfig()
        dense = self.engine.end_to_end("bert", self._plans("dense", 0.0), cfg)
        tw = self.engine.end_to_end("bert", self._plans("tw", 0.75), cfg)
        e2e_speedup = dense.total_us / tw.total_us
        gemm_speedup = dense.gemm_us / tw.gemm_us
        assert gemm_speedup > e2e_speedup > 1.2
        assert tw.transpose_us > 0.0

    def test_transpose_mode_effects(self):
        plans = self._plans("tw", 0.75)
        per_layer = self.engine.end_to_end(
            "bert", plans, EngineConfig(transpose=TransposePlan("per_layer"), fusion=False)
        )
        boundary = self.engine.end_to_end(
            "bert", plans, EngineConfig(transpose=TransposePlan("boundary_only"))
        )
        none = self.engine.end_to_end(
            "bert", plans, EngineConfig(transpose=TransposePlan("none"), fusion=False)
        )
        assert per_layer.transpose_us > boundary.transpose_us
        assert none.transpose_us == 0.0
        assert none.gemm_us > boundary.gemm_us  # uncoalesced penalty dominates

    def test_ew_runs_on_cuda_even_with_tc_engine(self):
        plan = LayerPlan(self.shapes[0], pattern="ew", sparsity=0.8)
        bd = self.engine.gemm_cost(plan, EngineConfig(engine="tensor_core"))
        assert bd.label == "ew"

    def test_tew_slower_than_tw_on_tc(self):
        """Fig. 10b: the CUDA-core residual erases tensor-core gains."""
        cfg = EngineConfig()
        tw = self.engine.gemm_cost(
            LayerPlan(self.shapes[0], pattern="tw", sparsity=0.75), cfg
        )
        tew = self.engine.gemm_cost(
            LayerPlan(self.shapes[0], pattern="tew", sparsity=0.75, tew_delta=0.05), cfg
        )
        assert tew.total_us > tw.total_us

    def test_bw_pattern(self):
        plan = LayerPlan(self.shapes[0], pattern="bw", sparsity=0.5, block_size=32)
        bd = self.engine.gemm_cost(plan, EngineConfig())
        assert bd.label == "blocksparse"
        assert bd.total_us > 0

    def test_real_tw_stats_respected(self):
        stats = TWShapeStats.synthetic(768, 768, 128, 0.9, seed=3)
        plan = LayerPlan(self.shapes[0], pattern="tw", sparsity=0.9, tw_stats=stats)
        bd = self.engine.gemm_cost(plan, EngineConfig())
        assert bd.counters.flops == 2.0 * self.shapes[0].m * stats.kept_elements

    def test_cuda_engine(self):
        cfg = EngineConfig(engine="cuda_core")
        dense = self.engine.end_to_end("bert", self._plans("dense", 0.0), cfg)
        tw = self.engine.end_to_end("bert", self._plans("tw", 0.75), cfg)
        assert dense.total_us / tw.total_us > 1.2

    def test_empty_plans_rejected(self):
        with pytest.raises(ValueError):
            self.engine.end_to_end("bert", [], EngineConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(engine="npu")


class TestGemmTotals:
    def setup_method(self):
        self.engine = InferenceEngine()
        self.shapes = bert_base_gemm_shapes(batch=64, seq=128)[:3]

    def test_each_plan_priced_against_its_own_baseline(self):
        """A mixed list: the ``ew`` layer's dense baseline runs on CUDA
        cores, the others on the requested tensor cores; both totals are
        weighted by each shape's ``count`` (48, 12, 12)."""
        cfg = EngineConfig(engine="tensor_core")
        plans = [
            LayerPlan(self.shapes[0], pattern="tw", sparsity=0.75),
            LayerPlan(self.shapes[1], pattern="ew", sparsity=0.75),
            LayerPlan(self.shapes[2], pattern="dense"),
        ]
        sparse_us, dense_us = self.engine.gemm_totals(plans, cfg)

        cuda = EngineConfig(engine="cuda_core")
        want_dense = 0.0
        want_sparse = 0.0
        for p, base in zip(plans, (cfg, cuda, cfg)):
            want_sparse += self.engine.gemm_cost(p, cfg).total_us * p.shape.count
            want_dense += (
                self.engine.gemm_cost(LayerPlan(p.shape), base).total_us * p.shape.count
            )
        assert sparse_us == want_sparse
        assert dense_us == want_dense
        # the ew layer's CUDA-core baseline is what moved the dense total
        tc_only = sum(
            self.engine.gemm_cost(LayerPlan(p.shape), cfg).total_us * p.shape.count
            for p in plans
        )
        assert dense_us > tc_only

    def test_dense_compilation_prices_speedup_exactly_one(self):
        rng = np.random.default_rng(0)
        weights = [rng.standard_normal((64, 96)), rng.standard_normal((96, 32))]
        model = repro.compile(weights, pattern="dense")
        for dtype in (None, "float16", "float32"):
            price = model.price(m=512, dtype=dtype)
            assert price.sparse_gemm_us == price.dense_gemm_us
            assert price.gemm_speedup == 1.0
