"""The end-to-end inference engine (paper §VI + Fig. 15).

:class:`InferenceEngine` prices a whole model forward pass:

- every weight GEMM through the pattern-appropriate engine
  (dense / TW / TEW / EW / VW / BW);
- the transpose kernels implied by the layout plan
  (:class:`TransposePlan`, priced by :func:`transpose_cost`);
- the non-GEMM kernels (Add-bias, LayerNorm, softmax, …) as an Amdahl
  fraction of the dense GEMM time, fused or unfused (paper: 39 % → 29 %
  for BERT).

The TEW hybrid runs its TW part on the selected engine and its CSC
residual through cuSparse on CUDA cores, sequentially — the reason δ=1 %
already erases the tensor-core speedup in Fig. 10b.

:meth:`InferenceEngine.gemm_totals` is the one place that sums a model's
sparse GEMM time against its dense baseline (paired per pattern by
:func:`baseline_engine_config`); ``CompiledTWModel.price()`` and
:func:`repro.experiments.latency.gemm_speedup` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.blocksparse import bsr_gemm_cost
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.costmodel import CostBreakdown, PerfCounters
from repro.gpu.cuda_core import dense_gemm_cuda_cost
from repro.gpu.cusparse import csr_spmm_cost
from repro.gpu.device import DeviceSpec, V100
from repro.gpu.tensor_core import dense_gemm_tc_cost
from repro.gpu.tw_kernel import TWExecutionOptions, TWShapeStats, tw_gemm_cost
from repro.models.registry import GemmShape, nongemm_time_fraction

__all__ = [
    "LayerPlan",
    "EngineConfig",
    "EndToEndReport",
    "InferenceEngine",
    "TransposePlan",
    "transpose_cost",
    "baseline_engine_config",
    "engine_for_dtype",
]


@dataclass(frozen=True)
class TransposePlan:
    """How many transpose kernels a schedule needs (paper §VI "Memory
    Accesses Coalesce").

    The TW GEMM wants its operands transposed.  ``per_layer`` — one
    transpose at every GEMM boundary (n_gemms + 1, ~10 % of end-to-end
    latency in Fig. 15); ``boundary_only`` — first-layer A and last-layer
    C only (the paper's fused layout: the non-GEMM kernels consume and
    produce the transposed layout); ``none`` — untransposed execution
    (the GEMM then pays the uncoalesced penalty instead).
    """

    mode: str = "boundary_only"

    def __post_init__(self) -> None:
        if self.mode not in ("per_layer", "boundary_only", "none"):
            raise ValueError(f"unknown transpose mode {self.mode!r}")


def transpose_cost(
    rows: int,
    cols: int,
    count: int,
    device: DeviceSpec = V100,
    calib: Calibration = DEFAULT_CALIBRATION,
    dtype_bytes: int = 2,
) -> CostBreakdown:
    """Price ``count`` transpose kernels of a ``rows×cols`` matrix.

    A transpose is a pure copy with one strided stream; it achieves only
    :attr:`Calibration.transpose_bw_fraction` of DRAM bandwidth.
    """
    if rows < 0 or cols < 0 or count < 0:
        raise ValueError("negative transpose geometry")
    if rows == 0 or cols == 0 or count == 0:
        return CostBreakdown(kernels=0, label="transpose")
    bytes_each = rows * cols * dtype_bytes
    loads = float(bytes_each * count)
    stores = float(bytes_each * count)
    memory_us = (loads + stores) / (
        device.mem_bandwidth * calib.transpose_bw_fraction
    ) * 1e6
    return CostBreakdown(
        compute_us=0.0,
        memory_us=memory_us,
        launch_us=count * device.kernel_launch_us,
        kernels=count,
        counters=PerfCounters(
            flops=0.0,
            bytes_loaded=loads,
            bytes_stored=stores,
            sector_bytes=device.sector_bytes,
        ),
        label="transpose",
    )


_PATTERNS = ("dense", "tw", "tew", "ew", "vw", "bw")


@dataclass(frozen=True)
class LayerPlan:
    """One weight GEMM plus its sparsity treatment.

    Attributes
    ----------
    shape:
        The GEMM geometry (``count`` repetitions share the plan).
    pattern:
        One of ``dense | tw | tew | ew | vw | bw``.
    sparsity:
        Overall weight sparsity of this layer.
    granularity:
        TW tile width ``G`` (TW/TEW only).
    tw_stats:
        Real tile geometry when available (from a pruned model); otherwise
        synthesised from ``sparsity``.
    tew_delta:
        EW-restored fraction for TEW.
    block_size:
        BW block size.
    """

    shape: GemmShape
    pattern: str = "dense"
    sparsity: float = 0.0
    granularity: int = 128
    tw_stats: TWShapeStats | None = None
    tew_delta: float = 0.0
    block_size: int = 32

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not (0.0 <= self.sparsity <= 1.0):
            raise ValueError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if self.pattern == "tew" and not (0.0 <= self.tew_delta < 1.0):
            raise ValueError(f"tew_delta must be in [0, 1), got {self.tew_delta}")


#: explicit dtype axis → per-element bytes for memory-traffic legs
_DTYPE_BYTES = {"float64": 8, "float32": 4, "float16": 2, "int8": 1}


@dataclass(frozen=True)
class EngineConfig:
    """Execution configuration for a whole forward pass."""

    engine: str = "tensor_core"
    transpose: TransposePlan = field(default_factory=TransposePlan)
    fusion: bool = True
    batching: bool = True
    streams: bool = True
    #: explicit serving dtype ("float64" | "float32" | "float16" | "int8");
    #: "" keeps the historical engine default (fp16 on tensor cores, fp32
    #: on CUDA cores — paper §VII-A).  The dtype axis only moves the
    #: memory-traffic legs; compute efficiency stays the engine's
    #: calibration (tensor-core MACs for fp16/int8, CUDA-core for fp32+).
    dtype: str = ""

    def __post_init__(self) -> None:
        if self.engine not in ("tensor_core", "cuda_core"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.dtype and self.dtype not in _DTYPE_BYTES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; "
                f"choose from {', '.join(_DTYPE_BYTES)} or ''"
            )

    @property
    def dtype_bytes(self) -> int:
        """Per-element bytes: the explicit dtype axis when set, otherwise
        FP16 on tensor cores / FP32 on CUDA cores (paper §VII-A)."""
        if self.dtype:
            return _DTYPE_BYTES[self.dtype]
        return 2 if self.engine == "tensor_core" else 4


def engine_for_dtype(dtype: str) -> str:
    """The natural engine for a serving dtype: reduced precision runs on
    tensor cores, full precision on CUDA cores (V100 tensor cores have no
    fp32/fp64 mode)."""
    if dtype and dtype not in _DTYPE_BYTES:
        raise ValueError(f"unknown dtype {dtype!r}")
    return "tensor_core" if dtype in ("float16", "int8") else "cuda_core"


def baseline_engine_config(pattern: str, config: EngineConfig) -> EngineConfig:
    """The dense baseline's engine for a pattern (the paper's pairing).

    EW/VW run through cuSparse on CUDA cores, so their dense baseline is
    the CUDA-core GEMM; every other pattern compares against the requested
    engine.  :meth:`InferenceEngine.gemm_totals` applies it per plan.
    """
    return EngineConfig(engine="cuda_core") if pattern in ("ew", "vw") else config


@dataclass
class EndToEndReport:
    """Latency decomposition of one forward pass (the Fig. 15 bars)."""

    gemm_us: float = 0.0
    transpose_us: float = 0.0
    nongemm_us: float = 0.0
    kernels: int = 0
    label: str = ""

    @property
    def total_us(self) -> float:
        """End-to-end latency."""
        return self.gemm_us + self.transpose_us + self.nongemm_us

    def fractions(self) -> dict[str, float]:
        """Share of each component (for the stacked bars of Fig. 15)."""
        t = self.total_us
        if t <= 0:
            return {"gemm": 0.0, "transpose": 0.0, "others": 0.0}
        return {
            "gemm": self.gemm_us / t,
            "transpose": self.transpose_us / t,
            "others": self.nongemm_us / t,
        }


class InferenceEngine:
    """Prices model forward passes under pattern + optimisation choices."""

    def __init__(
        self,
        device: DeviceSpec = V100,
        calib: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.device = device
        self.calib = calib
        # per-engine memos: a model prices the same GEMM geometry many times
        # (every layer against its dense baseline, repeated plan shapes,
        # synthetic tile geometries), and the cost models are pure functions
        # of (geometry, device, calib), both fixed per engine instance
        self._dense_cost_cache: dict[tuple[int, int, int, str], CostBreakdown] = {}
        self._synthetic_cache: dict[tuple[int, int, int, float, int], TWShapeStats] = {}

    # ------------------------------------------------------------------ #
    # single GEMM
    # ------------------------------------------------------------------ #
    def _dense_cost(self, shape: GemmShape, config: EngineConfig) -> CostBreakdown:
        key = (shape.m, shape.n, shape.k, config.engine)
        hit = self._dense_cost_cache.get(key)
        if hit is None:
            if config.engine == "tensor_core":
                hit = dense_gemm_tc_cost(shape.m, shape.n, shape.k, self.device, self.calib)
            else:
                hit = dense_gemm_cuda_cost(shape.m, shape.n, shape.k, self.device, self.calib)
            self._dense_cost_cache[key] = hit
        # CostBreakdown (and its counters) are mutable — hand each caller a
        # copy that shares nothing with the cache entry
        return replace(hit, counters=replace(hit.counters))

    def _tw_stats(self, plan: LayerPlan, sparsity: float | None = None) -> TWShapeStats:
        if plan.tw_stats is not None and sparsity is None:
            return plan.tw_stats
        s = plan.sparsity if sparsity is None else sparsity
        seed = hash((plan.shape.k, plan.shape.n, plan.granularity)) % (2**31)
        key = (plan.shape.k, plan.shape.n, plan.granularity, s, seed)
        hit = self._synthetic_cache.get(key)
        if hit is None:
            hit = TWShapeStats.synthetic(
                plan.shape.k, plan.shape.n, plan.granularity, s, seed=seed
            )
            self._synthetic_cache[key] = hit
        return hit

    def gemm_cost(self, plan: LayerPlan, config: EngineConfig) -> CostBreakdown:
        """Price one occurrence of the layer's GEMM under its pattern."""
        shape = plan.shape
        if plan.pattern == "dense":
            return self._dense_cost(shape, config)
        if plan.pattern in ("tw", "tew"):
            opts = TWExecutionOptions(
                transpose=config.transpose.mode != "none",
                batching=config.batching,
                streams=config.streams,
                engine=config.engine,
                dtype_bytes=config.dtype_bytes if config.dtype else None,
            )
            if plan.pattern == "tw":
                return tw_gemm_cost(
                    shape.m, self._tw_stats(plan), self.device, self.calib, opts
                )
            # TW part pruned to sparsity + delta, EW residual of delta·K·N
            tw_part = tw_gemm_cost(
                shape.m,
                self._tw_stats(plan, min(plan.sparsity + plan.tew_delta, 0.999)),
                self.device,
                self.calib,
                opts,
            )
            residual_nnz = int(plan.tew_delta * shape.k * shape.n)
            ew_part = csr_spmm_cost(
                shape.m, shape.k, shape.n, residual_nnz, self.device, self.calib
            )
            return tw_part.merge_serial(ew_part, label="tew")
        if plan.pattern in ("ew", "vw"):
            # cuSparse runs on CUDA cores regardless of the engine choice
            nnz = int((1.0 - plan.sparsity) * shape.k * shape.n)
            bd = csr_spmm_cost(shape.m, shape.k, shape.n, nnz, self.device, self.calib)
            return replace(bd, label=plan.pattern)
        # bw
        grid = -(-shape.k // plan.block_size) * -(-shape.n // plan.block_size)
        kept = int(round((1.0 - plan.sparsity) * grid))
        return bsr_gemm_cost(
            shape.m, shape.k, shape.n, plan.block_size, kept, self.device, self.calib
        )

    # ------------------------------------------------------------------ #
    # whole model
    # ------------------------------------------------------------------ #
    def gemm_totals(
        self, plans: list[LayerPlan], config: EngineConfig
    ) -> tuple[float, float]:
        """Count-weighted GEMM time of ``plans``: ``(sparse_us, dense_us)``.

        ``sparse_us`` prices each plan under ``config``; ``dense_us``
        prices each plan's shape as a dense GEMM under its own
        :func:`baseline_engine_config`, so a mixed list pairs every layer
        with its pattern's baseline.
        """
        sparse_us = dense_us = 0.0
        for p in plans:
            baseline = baseline_engine_config(p.pattern, config)
            sparse_us += self.gemm_cost(p, config).total_us * p.shape.count
            dense_us += self._dense_cost(p.shape, baseline).total_us * p.shape.count
        return sparse_us, dense_us

    def end_to_end(
        self, model_name: str, plans: list[LayerPlan], config: EngineConfig
    ) -> EndToEndReport:
        """Price a full forward pass (the Fig. 15 stacked bars).

        The non-GEMM share is Amdahl-fixed relative to the *dense* GEMM
        time of the same model (non-GEMM work does not shrink with weight
        sparsity), which is exactly why end-to-end speedups (1.61× BERT)
        trail GEMM-only speedups (2.26×) in the paper.
        """
        if not plans:
            raise ValueError("no layer plans given")
        gemm_us = 0.0
        kernels = 0
        n_gemms = 0
        for plan in plans:
            bd = self.gemm_cost(plan, config)
            gemm_us += bd.total_us * plan.shape.count
            kernels += bd.kernels * plan.shape.count
            n_gemms += plan.shape.count

        # the dense-cost memo makes this Amdahl baseline free for layers
        # whose gemm_cost above already priced the same dense geometry
        dense_gemm_us = sum(
            self._dense_cost(p.shape, config).total_us * p.shape.count for p in plans
        )
        frac = nongemm_time_fraction(model_name, fused=config.fusion)
        nongemm_us = dense_gemm_us * frac / (1.0 - frac)
        needs_transpose = any(p.pattern in ("tw", "tew") for p in plans)
        transpose_us = 0.0
        if needs_transpose and config.transpose.mode == "per_layer":
            # one activation transpose into every GEMM, plus the final output
            for p in plans:
                bd_t = transpose_cost(
                    p.shape.m, p.shape.k, p.shape.count,
                    self.device, self.calib, config.dtype_bytes,
                )
                transpose_us += bd_t.total_us
                kernels += bd_t.kernels
            last = plans[-1].shape
            bd_t = transpose_cost(
                last.m, last.n, 1, self.device, self.calib, config.dtype_bytes
            )
            transpose_us += bd_t.total_us
            kernels += bd_t.kernels
        elif needs_transpose and config.transpose.mode == "boundary_only":
            # paper §VI: transpose A before the first layer, C after the last
            first, last = plans[0].shape, plans[-1].shape
            for rows, cols in ((first.m, first.k), (last.m, last.n)):
                bd_t = transpose_cost(
                    rows, cols, 1, self.device, self.calib, config.dtype_bytes
                )
                transpose_us += bd_t.total_us
                kernels += bd_t.kernels
        return EndToEndReport(
            gemm_us=gemm_us,
            transpose_us=transpose_us,
            nongemm_us=nongemm_us,
            kernels=kernels,
            label=f"{model_name}/{config.engine}",
        )
