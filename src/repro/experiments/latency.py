"""Latency experiment pipeline on the simulator.

Prices any (model, pattern, sparsity, engine) combination against its dense
baseline using the paper's *full-size* GEMM shapes — BERT-base, VGG-16 and
the attention NMT — so latency numbers are not limited by the miniaturised
accuracy models.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.gpu.engine import EndToEndReport, EngineConfig, InferenceEngine, LayerPlan
from repro.models.registry import (
    GemmShape,
    bert_base_gemm_shapes,
    nmt_gemm_shapes,
    vgg16_gemm_shapes,
)
from repro.patterns.registry import resolve_engine

__all__ = [
    "MODEL_SHAPES",
    "model_plans",
    "gemm_speedup",
    "sparsity_sweep",
    "end_to_end_report",
]

#: Full-size GEMM shape factories per paper workload.
MODEL_SHAPES: dict[str, Callable[[], list[GemmShape]]] = {
    "bert": lambda: bert_base_gemm_shapes(batch=64, seq=128),
    "vgg": lambda: vgg16_gemm_shapes(batch=8),
    "nmt": lambda: nmt_gemm_shapes(batch=64, seq=32),
}

# A sweep prices hundreds of sparse configs against the *same* dense
# baselines, so the engine (with its per-shape memos) is shared module-wide.
_SHARED_ENGINE: InferenceEngine | None = None


def _default_engine() -> InferenceEngine:
    global _SHARED_ENGINE
    if _SHARED_ENGINE is None:
        _SHARED_ENGINE = InferenceEngine()
    return _SHARED_ENGINE


def model_plans(
    model: str,
    pattern: str,
    sparsity: float,
    *,
    granularity: int = 128,
    block_size: int = 32,
    tew_delta: float = 0.0,
) -> list[LayerPlan]:
    """Layer plans applying one pattern uniformly across a model's GEMMs."""
    if model not in MODEL_SHAPES:
        raise KeyError(f"unknown model {model!r}; expected one of {sorted(MODEL_SHAPES)}")
    return [
        LayerPlan(
            shape,
            pattern=pattern,
            sparsity=sparsity,
            granularity=granularity,
            block_size=block_size,
            tew_delta=tew_delta,
        )
        for shape in MODEL_SHAPES[model]()
    ]


def gemm_speedup(
    model: str,
    pattern: str,
    sparsity: float,
    *,
    engine: str = "tensor_core",
    granularity: int = 128,
    block_size: int = 32,
    tew_delta: float = 0.0,
    infer: InferenceEngine | None = None,
    config: EngineConfig | None = None,
) -> float:
    """GEMM-only speedup of a sparse configuration over its dense baseline.

    This is the paper's main reported quantity ("we focus on the GEMM
    execution time unless explicitly mentioned", §VII-A).  The baseline
    engine follows the paper's pairing
    (:func:`~repro.gpu.engine.baseline_engine_config`): EW/VW compare
    against dense CUDA cores, BW/TW/TEW against the requested engine.
    """
    infer = infer or _default_engine()
    config = config or EngineConfig(engine=resolve_engine(engine))
    plans = model_plans(
        model, pattern, sparsity,
        granularity=granularity, block_size=block_size, tew_delta=tew_delta,
    )
    sparse_us, dense_us = infer.gemm_totals(plans, config)
    if sparse_us <= 0:
        raise ValueError("sparse configuration has zero latency")
    return dense_us / sparse_us


def sparsity_sweep(
    model: str,
    pattern: str,
    sparsities: Sequence[float],
    **kwargs,
) -> list[float]:
    """Speedups across a sparsity grid (one figure series)."""
    return [gemm_speedup(model, pattern, s, **kwargs) for s in sparsities]


def end_to_end_report(
    model: str,
    pattern: str,
    sparsity: float,
    config: EngineConfig | None = None,
    *,
    granularity: int = 128,
    infer: InferenceEngine | None = None,
) -> EndToEndReport:
    """Full forward-pass breakdown (the Fig. 15 bars)."""
    infer = infer or _default_engine()
    config = config or EngineConfig()
    plans = model_plans(model, pattern, sparsity, granularity=granularity)
    return infer.end_to_end(model, plans, config)
