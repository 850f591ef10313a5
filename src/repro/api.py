"""One front door for the paper's pipeline: :func:`compile` and :func:`tune`.

The reproduction's contribution is a *pipeline* — tile-wise prune → compact
TW format → cross-layer liveness into live coordinates → per-tile gather
GEMM execution — and this module is its single entry point.  Instead of
hand-wiring ``tw_prune_step`` → ``TiledTWMatrix.from_masks`` →
``tighten_chain`` → ``tw_gemm`` at every call site, callers write::

    import repro

    model = repro.compile(weights, pattern="tw", sparsity=0.75,
                          granularity=128, engine="tensor_core")
    model.prune_report()      # what the pruner kept, what executes
    model.price(m=8192)       # cost-model latency vs the dense baseline
    y = model.run(x)          # TW forward (bit-identical to the
                              # hand-wired pipeline)
    model.save("model.npz")   # offline artifact (repro.load round-trips)
    server = model.serve()    # TWModelServer over the compiled layers

:func:`compile` one-shot-prunes *frozen* weights.  The paper's headline
accuracy numbers come from the **training-time** procedure instead —
gradual sparsity targets, per-stage importance re-scoring, mask-constrained
fine-tuning, and optionally the TEW element-wise overlay — and
:func:`tune` is its front door::

    result = repro.tune(adapter, pattern="tw", sparsity=0.75,
                        schedule="gradual", n_stages=4,
                        importance="taylor", tew=0.05)
    result.trajectory()       # per-stage sparsity / metric history
    y = result.run(x)         # TW GEMM (+ CSC residual pass for TEW)
    result.compiled.serve()   # same CompiledTWModel artifact as compile()

Patterns (``tw``, ``ew``, ``vw``, ``bw``, ``nm``), engines
(``tensor_core``, ``cuda_core``), schedules (``gradual``, ``oneshot``) and
importance metrics (``taylor``, ``magnitude``) are resolved through string
registries (:mod:`repro.patterns.registry`, :mod:`repro.core.schedule`,
:mod:`repro.core.importance`); multi-device placement (``single``,
``replicated``) through
:mod:`repro.runtime.placement` — every new entry is a registry
registration, not a new code path.

Two compilation sources:

- **weight matrices** (arrays, or an ``repro.nn`` module) — the full
  pipeline runs: pruning, compaction, execution;
- **a model name** (``"bert"``, ``"vgg"``, ``"nmt"``) — the paper's
  full-size GEMM shape tables are compiled for *pricing only* (the cost
  model needs no weights); ``run``/``serve``/``save`` explain what to pass
  instead.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.apriori import AprioriConfig
from repro.core.importance import ImportanceConfig, magnitude_score, resolve_importance
from repro.core.masks import overall_sparsity
from repro.core.pruner import ArrayModel, PrunableModel, TWPruner, stage_scores
from repro.core.schedule import GradualSchedule, resolve_schedule
from repro.core.tew import TEWConfig, TEWSolution, tew_overlay
from repro.core.tile_sparsity import TWPruneConfig, TWStepResult, tw_prune_step
from repro.formats.csc import CSCMatrix
from repro.formats.tiled import TiledTWMatrix
from repro.gpu.device import DeviceSpec
from repro.gpu.engine import (
    EndToEndReport,
    EngineConfig,
    InferenceEngine,
    LayerPlan,
    engine_for_dtype,
)
from repro.gpu.tw_kernel import TWShapeStats
from repro.kernels.fusion import (
    EPILOGUES,
    EpilogueSpec,
    apply_epilogue,
    resolve_epilogue_spec,
)
from repro.kernels.liveness import tighten_chain
from repro.kernels.masked import activation_dtype, tw_gemm
from repro.kernels.spmm import csc_left_spmm
from repro.models.registry import GemmShape
from repro.patterns.registry import PATTERNS, make_pattern, resolve_engine
from repro.runtime.placement import Placement, resolve_placement
from repro.runtime.scheduler import ExecutionPlan, build_execution_plan
from repro.runtime.server import ServerConfig, TWModelServer

__all__ = [
    "compile",
    "tune",
    "load",
    "CompiledTWModel",
    "CompiledLayer",
    "PriceReport",
    "TuneResult",
    "TuneStage",
    "demo_layer_stack",
]

#: patterns the cost model can price directly (LayerPlan vocabulary);
#: ``nm`` is priced as ``vw`` — both need hardware support and fall back
#: to cuSparse-on-CUDA-cores in the simulator
_PRICE_AS = {
    "tw": "tw",
    "tew": "tew",
    "ew": "ew",
    "vw": "vw",
    "bw": "bw",
    "nm": "vw",
    "dense": "dense",
}

#: compile-time strings that are not mask registry entries but are still
#: accepted: the dense baseline, and TEW which only the cost model knows
#: (the mask-level overlay needs the multi-stage pipeline in
#: repro.experiments.accuracy)
_NON_REGISTRY_PATTERNS = ("dense", "tew")


@dataclass(frozen=True)
class CompiledLayer:
    """One layer of a compiled model: weights, masks, formats, plans.

    For TW compilations every field is populated; for mask-only patterns
    (``ew``/``vw``/``bw``/``nm``) only ``dense`` + ``mask`` are (execution
    falls back to masked-dense GEMM); for shape-only compilations only
    ``shape`` is.

    A TW layer holds two formats.  ``pruned_tw`` is what pruning kept:
    ``save()``, ``sparsity``, ``price()`` and the plans read it, and
    ``shape``, ``mask``, ``epilogue`` and :meth:`masked_dense` describe
    the same pruned function.  ``tw`` is the *execution* format that
    ``run()``, every serving executor and ``TuneResult.run()`` pass to
    ``tw_gemm``, and ``tw_epilogue`` the epilogue they apply after it.
    The liveness stage (:func:`~repro.kernels.liveness.tighten_chain`)
    derives both in *live coordinates*: it drops the kept rows that read a
    column the previous layer never writes (folding constants into
    ``out_bias``), shrinks ``K`` and ``N`` to the columns the chain can
    see, and slices the epilogue's parameters to the same columns.  So
    ``tw.shape`` may be smaller than ``shape``; only the first layer's
    ``K`` and the last layer's ``N`` are always the model's.  ``tw``
    keeps every tile of ``pruned_tw`` in the same order, and is
    ``pruned_tw`` itself when nothing changed.  A layer built without the
    stage executes its pruned format and epilogue (``pruned_tw`` defaults
    to ``tw``, ``tw_epilogue`` to ``epilogue``).  The two execution fields
    change together: a ``tw_epilogue`` parameter vector whose length is
    not ``tw``'s ``N`` raises ``ValueError`` at construction.
    """

    name: str
    shape: tuple[int, int]
    dense: np.ndarray | None = None
    mask: np.ndarray | None = None
    col_keep: np.ndarray | None = None
    row_masks: tuple[np.ndarray, ...] = ()
    tw: TiledTWMatrix | None = None
    #: per-device GPU launch plans; nothing in the program executes or
    #: prices them, but the repository benchmark (``twbench/``) reads them
    plans: dict[DeviceSpec, ExecutionPlan] = field(default_factory=dict)
    epilogue: EpilogueSpec | None = None
    pruned_tw: TiledTWMatrix | None = None
    tw_epilogue: EpilogueSpec | None = None

    def __post_init__(self) -> None:
        if self.pruned_tw is None:
            object.__setattr__(self, "pruned_tw", self.tw)
        if self.tw_epilogue is None:
            object.__setattr__(self, "tw_epilogue", self.epilogue)
        if self.tw is not None and self.tw_epilogue is not None:
            # the pair changes together: replacing one alone must not run
            for name in ("bias", "gamma", "beta"):
                vec = getattr(self.tw_epilogue, name)
                if vec is not None and np.shape(vec) != (self.tw.shape[1],):
                    raise ValueError(
                        f"layer {self.name!r}: tw_epilogue.{name} has shape "
                        f"{np.shape(vec)}, tw has {self.tw.shape[1]} columns"
                    )

    @property
    def sparsity(self) -> float:
        """Element sparsity of this layer after pruning."""
        if self.pruned_tw is not None:
            return self.pruned_tw.sparsity
        if self.mask is not None:
            return 1.0 - float(np.asarray(self.mask).mean())
        return 0.0

    def masked_dense(self) -> np.ndarray:
        """The mask-expanded weight, memoised (mask-only execution path).

        Both operands are frozen, so the product is computed once and
        parked in the instance ``__dict__`` — the same memo idiom the
        kernels use for tile operands.
        """
        hit = self.__dict__.get("_masked_dense")
        if hit is None:
            hit = self.dense * self.mask
            object.__setattr__(self, "_masked_dense", hit)
        return hit


@dataclass(frozen=True)
class PriceReport:
    """Cost-model pricing of a compiled model vs its dense baseline.

    ``gemm_speedup`` is the paper's main reported quantity;
    ``end_to_end`` is populated for named-model compilations (where the
    non-GEMM Amdahl fraction is known) and ``None`` for raw weight stacks.
    """

    label: str
    pattern: str
    engine: str
    m: int
    sparse_gemm_us: float
    dense_gemm_us: float
    end_to_end: EndToEndReport | None = None
    dtype: str = ""

    @property
    def gemm_speedup(self) -> float:
        """Dense-baseline GEMM time over sparse GEMM time."""
        return self.dense_gemm_us / self.sparse_gemm_us if self.sparse_gemm_us > 0 else 0.0


class CompiledTWModel:
    """A pruned, compacted model — the pipeline's one artifact.

    Owns per-layer compact formats, so every consumer
    (forward execution, cost-model pricing, serialization, serving) reads
    the *same* compiled state instead of re-running parts of the pipeline.
    """

    def __init__(
        self,
        layers: list[CompiledLayer],
        *,
        pattern: str,
        sparsity: float,
        granularity: int,
        engine: str,
        placement: Placement,
        achieved_sparsity: float | None = None,
        model_name: str | None = None,
    ) -> None:
        self.layers = layers
        self.pattern = pattern
        self.sparsity = sparsity
        self.granularity = granularity
        self.engine = engine
        self.placement = placement
        self.model_name = model_name
        if achieved_sparsity is None:
            total = sum(l.shape[0] * l.shape[1] for l in layers) or 1
            kept = sum((1.0 - l.sparsity) * l.shape[0] * l.shape[1] for l in layers)
            achieved_sparsity = 1.0 - kept / total
        self.achieved_sparsity = achieved_sparsity

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_layers(self) -> int:
        """Compiled layers."""
        return len(self.layers)

    @property
    def executable(self) -> bool:
        """Whether :meth:`run` can execute (weights were compiled)."""
        return bool(self.layers) and all(
            l.tw is not None or (l.dense is not None and l.mask is not None)
            for l in self.layers
        )

    @property
    def dtype(self) -> np.dtype:
        """Payload dtype of the compiled formats."""
        for l in self.layers:
            if l.tw is not None:
                return l.tw.dtype
            if l.dense is not None:
                return l.dense.dtype
        return np.dtype(np.float64)

    def _require_weights(self, what: str) -> None:
        if not self.executable:
            raise ValueError(
                f"cannot {what}: this model was compiled from "
                f"{self.model_name or 'shapes'!r} shapes only — "
                "pass weight matrices (or an repro.nn module) to repro.compile() "
                "to get an executable model"
            )

    def prune_report(self) -> dict:
        """What pruning kept: per-layer and overall sparsity, tile geometry.

        A TW layer's ``sparsity`` is its pruned sparsity; its
        ``executed_density`` is the multiply-adds its execution format
        keeps after the liveness stage, over the pruned ``K·N``, so the
        live-coordinate re-indexing cannot move it.  ``exec_shape`` is the
        execution format's ``K×N`` in live coordinates.  The tile geometry
        describes the pruned format.
        """
        self._require_weights("report pruning")
        rows = []
        for l in self.layers:
            row = {
                "name": l.name,
                "shape": list(l.shape),
                "sparsity": round(l.sparsity, 6),
            }
            if l.tw is not None:
                k, n = l.pruned_tw.shape
                row.update(
                    executed_density=round(sum(t.work for t in l.tw.tiles) / (k * n), 6),
                    exec_shape=list(l.tw.shape),
                    tiles=l.pruned_tw.n_tiles,
                    kept_columns=l.pruned_tw.kept_columns,
                    load_imbalance=round(l.pruned_tw.load_imbalance(), 4),
                    memory_bytes=l.pruned_tw.memory_bytes(),
                )
            rows.append(row)
        return {
            "pattern": self.pattern,
            "granularity": self.granularity,
            "target_sparsity": self.sparsity,
            "achieved_sparsity": round(self.achieved_sparsity, 6),
            "placement": {
                "kind": self.placement.kind,
                "devices": [d.name for d in self.placement.devices],
            },
            "layers": rows,
        }

    # ------------------------------------------------------------------ #
    # pricing (cost model)
    # ------------------------------------------------------------------ #
    def price(
        self,
        m: int = 8192,
        infer: InferenceEngine | None = None,
        *,
        dtype: str | None = None,
    ) -> PriceReport:
        """Cost-model latency of this model vs its dense baseline.

        Named-model compilations price the paper's full-size shape tables
        (GEMM-only speedup + the Fig. 15 end-to-end breakdown); weight
        compilations price each layer at ``m`` activation rows using the
        *real* compiled tile geometry (``TWShapeStats.from_matrix``), not a
        synthetic sparsity model.  Both price on the placement's primary
        device unless ``infer`` is given, and both sum through
        :meth:`~repro.gpu.engine.InferenceEngine.gemm_totals`.

        ``dtype`` selects the cost model's precision axis: ``"float16"``
        and ``"int8"`` price the tensor-core pipeline at 2-/1-byte traffic,
        ``"float32"``/``"float64"`` the CUDA-core pipeline at 4-/8-byte
        traffic (the engine follows
        :func:`~repro.gpu.engine.engine_for_dtype`).  ``None`` keeps
        the compiled ``engine`` and the engine's historical default width —
        the pre-mixed-precision behaviour.
        """
        engine = engine_for_dtype(dtype) if dtype else self.engine
        infer = infer or InferenceEngine(device=self.placement.primary)
        config = EngineConfig(engine=engine, dtype=dtype or "")
        price_pattern = _PRICE_AS[self.pattern]
        if self.model_name is not None:
            from repro.experiments.latency import model_plans

            m = 0
            plans = model_plans(
                self.model_name, price_pattern, self.sparsity,
                granularity=self.granularity,
            )
        else:
            if m <= 0:
                raise ValueError(f"m must be positive, got {m}")
            plans = [
                LayerPlan(
                    GemmShape(m, l.shape[0], l.shape[1], name=l.name),
                    pattern=price_pattern,
                    sparsity=min(l.sparsity, 1.0),
                    granularity=self.granularity,
                    tw_stats=(
                        TWShapeStats.from_matrix(l.pruned_tw)
                        if l.pruned_tw is not None else None
                    ),
                )
                for l in self.layers
            ]
        sparse_us, dense_us = infer.gemm_totals(plans, config)
        return PriceReport(
            label=self.model_name or f"{self.n_layers}-layer stack",
            pattern=self.pattern,
            engine=engine,
            m=m,
            sparse_gemm_us=sparse_us,
            dense_gemm_us=dense_us,
            end_to_end=(
                infer.end_to_end(self.model_name, plans, config)
                if self.model_name is not None else None
            ),
            dtype=dtype or "",
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """Forward ``x`` through the compiled layer stack.

        TW layers execute their execution format ``CompiledLayer.tw`` as
        per-tile gather GEMMs and then their execution epilogue
        ``CompiledLayer.tw_epilogue``, bit-identical to the hand-wired
        ``tw_prune → from_masks → tighten_chain → tw_gemm`` pipeline.  The
        liveness stage (:mod:`repro.kernels.liveness`) has dropped the kept
        rows that read a column the previous layer never writes and moved
        each layer into live coordinates, so the activations between two
        layers hold only the columns the chain can see; the input and
        output widths are the model's.  The function is still the pruned
        model's: exact against the pruned formats on dyadic float64 data
        across edges with no epilogue, and within
        :data:`~repro.kernels.masked.DTYPE_TOLERANCES` where a
        ``bias_gelu`` constant was folded into ``out_bias``.  Mask-only
        patterns execute dense GEMM against the mask-expanded weights.
        A layer carrying an
        :class:`~repro.kernels.fusion.EpilogueSpec` applies its *fused*
        epilogue right after the GEMM (the layer's own input serves as the
        residual stream for residual epilogues) — bit-identical in float64
        to the unfused ``*_reference`` composition.

        Activations are cast once, at entry, to the model's activation
        dtype — the compiled ``dtype`` for float models, ``float32`` for
        ``int8`` (weights-only quantisation keeps float activations; see
        :func:`~repro.kernels.masked.activation_dtype`) — so
        ``run`` and ``serve`` execute the same numerics and stay
        bit-identical.
        """
        a = self._activations(x)
        for i, l in enumerate(self.layers):
            if i and l.shape[0] != self.layers[i - 1].shape[1]:
                raise ValueError(
                    f"layer {i} K={l.shape[0]} does not chain onto layer "
                    f"{i - 1} N={self.layers[i - 1].shape[1]}"
                )
            if l.tw is not None:
                y = tw_gemm(a, l.tw)
            else:
                y = a @ l.masked_dense()
            a = apply_epilogue(y, l.tw_epilogue, residual=a) if l.tw_epilogue else y
        return a

    def _activations(self, x: np.ndarray) -> np.ndarray:
        """``x`` as :meth:`run` executes it: 2-D, in the activation dtype,
        ``K`` checked against the first layer."""
        self._require_weights("run")
        a = np.atleast_2d(np.asarray(x))
        act = activation_dtype(self.dtype)
        if a.dtype != act:
            a = a.astype(act)
        if self.layers and a.shape[1] != self.layers[0].shape[0]:
            raise ValueError(
                f"input K={a.shape[1]} != model K={self.layers[0].shape[0]}"
            )
        return a

    def serve(self, config: ServerConfig | None = None, **overrides) -> TWModelServer:
        """A :class:`TWModelServer` over this model's compiled layers.

        The server serves this model's own execution formats and
        epilogues (``CompiledLayer.tw``/``tw_epilogue``, in live
        coordinates), and its ``warm()`` builds their tile operands, so the
        first request only pays the GEMMs; every output is bit-identical to
        :meth:`run`.  With no ``config`` it inherits the
        compiled placement.  Granularity and payload dtype are fixed at
        compile time; re-compile to change them.

        Keyword arguments override :class:`ServerConfig` fields by name
        (with or without an explicit ``config``) and are validated there;
        an unknown name raises :class:`TypeError`.  For example
        ``executor="threaded"`` overlaps the placement's device slots in
        wall-time (outputs stay bit-identical to ``inline``), and
        ``max_wave_rows``, ``max_retries``, ``max_queue_rows``,
        ``watchdog_s`` or ``faults`` configure batching and the
        fault-tolerant serving path.  A ``placement`` override needs no
        re-compilation: every device runs the same formats.  Call ``server.close()`` (or use the server as a
        context manager) when done: that shuts the worker threads down.
        """
        self._require_weights("serve")
        if any(l.tw is None for l in self.layers):
            raise ValueError(
                f"serving requires the TW pattern; this model was compiled "
                f"with pattern={self.pattern!r}"
            )
        config = config or ServerConfig(placement=self.placement)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        server = TWModelServer(config)
        for l in self.layers:
            server.add_layer(l.tw, epilogue=l.tw_epilogue)
        return server

    def serve_async(
        self,
        config: ServerConfig | None = None,
        *,
        stats_interval_s: float = 0.0,
        **serve_overrides,
    ):
        """An async continuous-batching ingress over this model.

        Builds a :meth:`serve` server (same ``config``/override
        semantics — ``executor=``, ``max_wave_rows=``, ``faults=``, ...) and
        wraps it in a :class:`~repro.runtime.ingress.ServingLoop` that
        *owns* it: closing the loop closes the server.  Use it from an
        event loop::

            async with model.serve_async(executor="threaded") as loop:
                served = await loop.submit(x, deadline_s=0.05)

        Each admitted wave holds at most the config's ``max_wave_rows``
        rows; ``stats_interval_s > 0`` emits a periodic one-line stats
        log.  Outputs are bit-identical to draining the same requests
        sequentially through :meth:`serve`.
        """
        from repro.runtime.ingress import ServingLoop

        server = self.serve(config, **serve_overrides)
        return ServingLoop(
            server, stats_interval_s=stats_interval_s, owns_server=True
        )

    def serve_http(
        self,
        config: ServerConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        drain_timeout_s: float = 30.0,
        stats_json: str | None = None,
        stats_interval_s: float = 0.0,
        **serve_overrides,
    ):
        """A network front door over this model: HTTP ingress + loop + server.

        Stacks the whole serving pipeline — :meth:`serve` server (same
        ``config``/override semantics), continuous-batching
        :class:`~repro.runtime.ingress.ServingLoop`, and a
        :class:`~repro.runtime.netserve.NetServer` that owns both — so
        remote clients hit ``POST /v1/infer`` with the binary tensor
        wire format (or JSON), per-request ``X-Deadline-Ms`` budgets,
        and honest 429/504/500 terminal statuses.  Run it blocking
        (``.run()`` — drains gracefully on SIGTERM), inside an event
        loop (``async with``), or on a daemon thread (``with``)::

            net = model.serve_http(port=8080, executor="threaded")
            net.run()                       # serves until SIGTERM

        ``port=0`` binds an ephemeral port (read ``net.port`` once
        started); ``drain_timeout_s`` bounds the graceful drain so
        shutdown cannot hang past the server watchdog; ``stats_json``
        writes a final stats snapshot on shutdown.
        """
        from repro.runtime.netserve import NetServer

        loop = self.serve_async(
            config, stats_interval_s=stats_interval_s, **serve_overrides
        )
        return NetServer(
            loop,
            host=host,
            port=port,
            drain_timeout_s=drain_timeout_s,
            stats_json=stats_json,
            owns_loop=True,
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the compiled model to one ``.npz`` (``repro.load`` reads it).

        Stores the compact tile payloads, pruning masks and compilation
        metadata — the offline artifact of the paper's §VI pre-processing.
        Plans are rebuilt deterministically at load, so they are not stored.
        """
        from repro.formats.io import save_compiled_arrays

        self._require_weights("save")
        if any(l.tw is None for l in self.layers):
            raise ValueError(
                f"only TW compilations serialize; this model used {self.pattern!r}"
            )
        meta = {
            "pattern": self.pattern,
            "sparsity": self.sparsity,
            "achieved_sparsity": self.achieved_sparsity,
            "granularity": self.granularity,
            "engine": self.engine,
            "placement_kind": self.placement.kind,
            "devices": [_device_dict(d) for d in self.placement.devices],
            "layer_names": [l.name for l in self.layers],
        }
        layers = [
            {
                "tw": l.pruned_tw,
                "col_keep": l.col_keep,
                "row_masks": list(l.row_masks),
                "epilogue": _epilogue_dict(l.epilogue),
            }
            for l in self.layers
        ]
        return save_compiled_arrays(path, meta, layers)

    @classmethod
    def load(cls, path: str | Path) -> "CompiledTWModel":
        """Reconstruct a compiled model saved with :meth:`save`.

        Tile payloads round-trip bit-exactly.  Everything derived from
        them is rebuilt deterministically: ``CompiledLayer.plans``, the
        pruning ``mask`` and the dense view (zero at pruned positions), and
        the execution formats and epilogues in live coordinates, by the
        same liveness stage as :func:`compile`, so the loaded ``run()`` is
        bit-identical to the saved model's.
        """
        from repro.formats.io import load_compiled_arrays

        meta, raw_layers = load_compiled_arrays(path)
        placement = Placement(
            meta["placement_kind"],
            tuple(DeviceSpec(**d) for d in meta["devices"]),
        )
        layers = []
        for i, raw in enumerate(raw_layers):
            tw: TiledTWMatrix = raw["tw"]
            layers.append(
                CompiledLayer(
                    name=meta["layer_names"][i],
                    shape=tw.shape,
                    dense=tw.to_dense(),
                    mask=tw.element_mask(),
                    col_keep=raw["col_keep"],
                    row_masks=tuple(raw["row_masks"]),
                    tw=tw,
                    plans=_build_plans(tw, placement),
                    epilogue=_epilogue_from_dict(raw.get("epilogue")),
                )
            )
        return cls(
            _execution_formats(layers),
            pattern=meta["pattern"],
            sparsity=meta["sparsity"],
            granularity=meta["granularity"],
            engine=meta["engine"],
            placement=placement,
            achieved_sparsity=meta["achieved_sparsity"],
        )


def _device_dict(d: DeviceSpec) -> dict:
    return dataclasses.asdict(d)


def _epilogue_dict(spec: EpilogueSpec | None) -> dict | None:
    """An :class:`EpilogueSpec` as the plain dict ``formats.io`` persists."""
    if spec is None:
        return None
    return {
        "name": spec.name,
        "p": spec.p,
        "seed": spec.seed,
        "eps": spec.eps,
        "bias": spec.bias,
        "gamma": spec.gamma,
        "beta": spec.beta,
    }


def _epilogue_from_dict(raw: dict | None) -> EpilogueSpec | None:
    """Inverse of :func:`_epilogue_dict` (round-trips bit-exactly)."""
    if raw is None:
        return None
    return EpilogueSpec(
        name=raw["name"],
        bias=raw.get("bias"),
        gamma=raw.get("gamma"),
        beta=raw.get("beta"),
        p=float(raw["p"]),
        seed=int(raw["seed"]),
        eps=float(raw["eps"]),
    )


def _layer_epilogues(
    epilogue, weights: list[np.ndarray], dtype
) -> list[EpilogueSpec | None]:
    """Resolve the ``epilogue=`` compile argument to one spec per layer.

    Accepts ``None``, one name/:class:`EpilogueSpec` applied to every
    layer, or a sequence with one entry (name/spec/``None``) per layer.
    Neutral parameters (zero bias, unit gamma) are materialised at each
    layer's output width in the pipeline's accumulation dtype.
    """
    if epilogue is None:
        return [None] * len(weights)
    if isinstance(epilogue, (str, EpilogueSpec)):
        per_layer = [epilogue] * len(weights)
    else:
        per_layer = list(epilogue)
        if len(per_layer) != len(weights):
            raise ValueError(
                f"{len(per_layer)} epilogue entries for {len(weights)} layers"
            )
    specs = [
        resolve_epilogue_spec(e, n=w.shape[1], dtype=dtype or w.dtype)
        for e, w in zip(per_layer, weights)
    ]
    for i, (spec, w) in enumerate(zip(specs, weights)):
        if spec is None:
            continue
        if EPILOGUES.create(spec.name).uses_residual and w.shape[0] != w.shape[1]:
            raise ValueError(
                f"epilogue {spec.name!r} adds the layer input as a residual, "
                f"which needs a square layer; layer {i} is "
                f"{w.shape[0]}x{w.shape[1]}"
            )
    return specs


def _execution_formats(layers: list[CompiledLayer]) -> list[CompiledLayer]:
    """The liveness stage over a TW layer stack (after compaction).

    Each layer keeps its pruned format as ``pruned_tw`` and its epilogue
    as ``epilogue``, and executes the format and epilogue
    :func:`~repro.kernels.liveness.tighten_chain` derives from them.
    """
    chain = tighten_chain(
        [l.pruned_tw for l in layers], [l.epilogue for l in layers]
    )
    return [
        dataclasses.replace(l, tw=tw, tw_epilogue=spec)
        for l, (tw, spec) in zip(layers, chain)
    ]


def _build_plans(tw: TiledTWMatrix, placement: Placement) -> dict[DeviceSpec, ExecutionPlan]:
    """Execution plans for every device of the placement (any slot runs any wave)."""
    return {d: build_execution_plan(tw, d) for d in placement.devices}


def _tw_layer(
    w: np.ndarray,
    name: str,
    cfg: TWPruneConfig,
    col_keep: np.ndarray,
    row_masks: list[np.ndarray],
    mask: np.ndarray,
    placement: Placement,
    dtype,
    epilogue: EpilogueSpec | None = None,
) -> CompiledLayer:
    """One fully-compiled TW layer from a weight matrix and its prune masks.

    The single construction path shared by :func:`compile` and
    :func:`tune` — both therefore execute the identical
    ``from_masks → tw_gemm`` chain, which is what
    makes their bit-identity contracts structural rather than incidental.
    """
    tw = TiledTWMatrix.from_masks(
        w, cfg.granularity, col_keep, row_masks,
        reorganize=cfg.reorganize, dtype=dtype,
    )
    return CompiledLayer(
        name=name,
        shape=tw.shape,
        dense=w,
        mask=mask,
        col_keep=col_keep,
        row_masks=tuple(row_masks),
        tw=tw,
        plans=_build_plans(tw, placement),
        epilogue=epilogue,
    )


def _normalize_weights(
    model_or_weights, names: Sequence[str] | None
) -> tuple[list[np.ndarray], list[str]]:
    """Weight matrices + layer names from any accepted model source."""
    if hasattr(model_or_weights, "prunable_weights"):
        weights = [np.asarray(t.data) for t in model_or_weights.prunable_weights()]
    elif isinstance(model_or_weights, np.ndarray):
        weights = [model_or_weights] if model_or_weights.ndim == 2 else list(model_or_weights)
    else:
        weights = [np.asarray(w) for w in model_or_weights]
    if not weights:
        raise ValueError("no weight matrices to compile")
    for i, w in enumerate(weights):
        if w.ndim != 2:
            raise ValueError(f"weight {i} must be 2-D, got ndim={w.ndim}")
    if names is None:
        names = [f"layer{i}" for i in range(len(weights))]
    elif len(names) != len(weights):
        raise ValueError(f"{len(names)} names for {len(weights)} weights")
    return weights, list(names)


def compile(
    model_or_weights,
    *,
    pattern: str = "tw",
    sparsity: float = 0.75,
    granularity: int = 128,
    engine: str = "tensor_core",
    placement: Placement | str | None = None,
    devices: Sequence[DeviceSpec] | None = None,
    dtype: np.dtype | type | None = np.float64,
    epilogue=None,
    scores: Sequence[np.ndarray] | None = None,
    prune_config: TWPruneConfig | None = None,
    pattern_kwargs: dict | None = None,
    names: Sequence[str] | None = None,
) -> CompiledTWModel:
    """Run the paper's pipeline end to end; returns a :class:`CompiledTWModel`.

    Parameters
    ----------
    model_or_weights:
        A 2-D array, a sequence of 2-D arrays (a chained layer stack), an
        ``repro.nn`` module exposing ``prunable_weights()``, or a model
        name string (``"bert"``/``"vgg"``/``"nmt"`` — shape tables, priced
        only).
    pattern:
        Registry name (``tw``, ``ew``, ``vw``, ``bw``, ``nm``; aliases
        accepted) or ``"dense"`` for the unpruned baseline.
    sparsity:
        Overall weight-sparsity target.
    granularity:
        TW tile width ``G``.
    engine:
        Registry name (``tensor_core``/``tc``, ``cuda_core``/``cc``).
    placement:
        A :class:`~repro.runtime.placement.Placement`, a kind string
        (combined with ``devices``), or ``None`` for single-device.
    dtype:
        Compact payload dtype (``None`` keeps the weights' own dtype).
        ``float64``/``float32`` store and compute at that precision;
        ``float16`` stores half-precision payloads and accumulates every
        group GEMM in float32; ``int8`` quantises each tile symmetrically
        (per-tile scale, weights-only) and serves float32 activations.
    epilogue:
        Optional fused per-layer epilogue: an
        :data:`~repro.kernels.fusion.EPILOGUES` registry name
        (``bias_gelu``, ``bias_layernorm``,
        ``dropout_residual_layernorm``), a full
        :class:`~repro.kernels.fusion.EpilogueSpec`, or a sequence with
        one entry (or ``None``) per layer.  Applied inside ``run()`` and
        the serving wave task right after each layer's GEMM — bit-identical
        in float64 to the unfused ``*_reference`` composition.
    scores:
        Element importance scores per weight; defaults to magnitude.
    prune_config:
        Full :class:`TWPruneConfig` override (TW only; ``granularity`` is
        ignored when given).
    pattern_kwargs:
        Extra registry-factory arguments (``vector_size``, ``block_shape``,
        ``n``/``m``).
    names:
        Layer names for reports.
    """
    placement = resolve_placement(placement, devices)
    engine = resolve_engine(engine)
    if pattern not in _NON_REGISTRY_PATTERNS:
        pattern = PATTERNS.canonical(pattern)

    if isinstance(model_or_weights, str):
        # price-only compilations admit the closed interval: the cost
        # model can price sparsity 1.0, only *pruning* needs headroom
        if not (0.0 <= sparsity <= 1.0):
            raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
        return _compile_named(
            model_or_weights, pattern, sparsity, granularity, engine, placement
        )
    if not (0.0 <= sparsity < 1.0):
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    if pattern == "tew":
        raise ValueError(
            "tew is price-only at compile time: the mask-level TEW overlay "
            "needs the multi-stage pipeline "
            "(repro.experiments.accuracy.prune_and_evaluate)"
        )

    weights, layer_names = _normalize_weights(model_or_weights, names)
    score_mats = (
        [np.asarray(s, dtype=np.float64) for s in scores]
        if scores is not None
        else [magnitude_score(w) for w in weights]
    )
    if len(score_mats) != len(weights):
        raise ValueError(f"{len(score_mats)} score matrices for {len(weights)} weights")

    layers: list[CompiledLayer] = []
    epilogues = _layer_epilogues(epilogue, weights, dtype)
    if pattern == "tw":
        cfg = prune_config or TWPruneConfig(granularity=granularity)
        granularity = cfg.granularity
        step = tw_prune_step(score_mats, sparsity, cfg)
        for i, w in enumerate(weights):
            layers.append(
                _tw_layer(
                    w, layer_names[i], cfg, step.col_keeps[i],
                    step.row_masks[i], step.masks[i], placement, dtype,
                    epilogue=epilogues[i],
                )
            )
        layers = _execution_formats(layers)
        achieved = step.achieved_sparsity
    elif pattern == "dense":
        for i, w in enumerate(weights):
            layers.append(
                CompiledLayer(
                    name=layer_names[i], shape=w.shape, dense=w,
                    mask=np.ones(w.shape, dtype=bool),
                    epilogue=epilogues[i],
                )
            )
        achieved = 0.0
    else:
        pat = make_pattern(pattern, granularity=granularity, **(pattern_kwargs or {}))
        result = pat.prune(score_mats, sparsity)
        for i, w in enumerate(weights):
            layers.append(
                CompiledLayer(
                    name=layer_names[i], shape=w.shape, dense=w,
                    mask=np.asarray(result.masks[i], dtype=bool),
                    epilogue=epilogues[i],
                )
            )
        achieved = result.achieved_sparsity
    return CompiledTWModel(
        layers,
        pattern=pattern,
        sparsity=sparsity,
        granularity=granularity,
        engine=engine,
        placement=placement,
        achieved_sparsity=achieved,
    )


def _compile_named(
    model: str,
    pattern: str,
    sparsity: float,
    granularity: int,
    engine: str,
    placement: Placement,
) -> CompiledTWModel:
    """Shape-table compilation for the paper's full-size models."""
    from repro.experiments.latency import MODEL_SHAPES

    if model not in MODEL_SHAPES:
        raise KeyError(
            f"unknown model {model!r}; expected one of {sorted(MODEL_SHAPES)}"
        )
    if pattern not in _PRICE_AS:
        raise KeyError(
            f"pattern {pattern!r} has no cost model; priceable: {sorted(_PRICE_AS)}"
        )
    shapes = MODEL_SHAPES[model]()
    layers = [
        CompiledLayer(name=s.name or f"gemm{i}", shape=(s.k, s.n))
        for i, s in enumerate(shapes)
    ]
    return CompiledTWModel(
        layers,
        pattern=pattern,
        sparsity=sparsity,
        granularity=granularity,
        engine=engine,
        placement=placement,
        achieved_sparsity=sparsity,
        model_name=model,
    )


@dataclass(frozen=True)
class TuneStage:
    """One prune(+fine-tune) stage of a tuning session.

    ``kind`` is ``"prune"`` for the schedule's stages and ``"overlay"`` for
    the final TEW restore+fine-tune pass; ``metric`` is populated only when
    :func:`tune` was given an ``evaluate=`` callback.
    """

    index: int
    kind: str
    target_sparsity: float
    achieved_sparsity: float
    metric: float | None = None


@dataclass
class TuneResult:
    """Everything a tuning session produced — trajectory, masks, artifact.

    ``compiled`` is the same :class:`CompiledTWModel` artifact
    :func:`compile` returns (built from the *fine-tuned* weights and the
    final stage's masks), so the whole downstream surface —
    ``prune_report()``, ``price()``, ``run()``, ``save()``, ``serve()`` —
    applies unchanged.  For TEW sessions ``compiled`` holds the pure-TW
    part (at the overshoot sparsity ``α + δ``) and ``residuals`` the
    restored elements' *final trained values* in CSC form; :meth:`run`
    executes the paper's two-pass decomposition
    ``A · B_TEW = A · B_TW + A · B_residual``.
    """

    compiled: CompiledTWModel
    pattern: str
    sparsity: float
    granularity: int
    schedule: GradualSchedule
    importance: ImportanceConfig
    history: list[TuneStage]
    masks: list[np.ndarray]
    tew: TEWSolution | None = None
    residuals: list[CSCMatrix] | None = None

    @property
    def achieved_sparsity(self) -> float:
        """Overall sparsity of the effective keep masks (TW ∪ EW for TEW)."""
        return overall_sparsity(self.masks)

    @property
    def n_stages(self) -> int:
        """Stages actually run (schedule stages + the TEW overlay pass)."""
        return len(self.history)

    @property
    def metric(self) -> float | None:
        """Final ``evaluate()`` reading, or ``None`` when no callback ran."""
        return self.history[-1].metric if self.history else None

    def trajectory(self) -> list[dict]:
        """The per-stage sparsity/metric history as plain records.

        JSON-ready (the CLI prints it verbatim under ``--json``); one row
        per stage in execution order.
        """
        return [
            {
                "stage": s.index,
                "kind": s.kind,
                "target_sparsity": s.target_sparsity,
                "achieved_sparsity": round(s.achieved_sparsity, 6),
                "metric": s.metric,
            }
            for s in self.history
        ]

    def run(self, x: np.ndarray) -> np.ndarray:
        """Forward ``x`` through the tuned model.

        Plain sessions delegate to ``compiled.run`` (bit-identical to the
        hand-wired ``TWPruner``/mask-rule chain); TEW sessions add the
        CSC residual pass per layer, exploiting linearity exactly as the
        paper's CUDA-core overlay kernel does (§IV-A).  Both take their
        input as ``compiled.run`` does (cast once to the activation dtype,
        ``K`` checked), and the residual pass runs in that dtype too.
        """
        if self.residuals is None:
            return self.compiled.run(x)
        a = self.compiled._activations(x)
        for l, r in zip(self.compiled.layers, self.residuals):
            ew = dataclasses.replace(r, data=r.data.astype(a.dtype, copy=False))
            a = tw_gemm(a, l.tw) + csc_left_spmm(a, ew)
        return a

    def save(self, path: str | Path) -> Path:
        """Persist the tuned model via :meth:`CompiledTWModel.save`.

        TW sessions round-trip through ``repro.load`` bit-exactly.  TEW
        sessions refuse (the residual has no ``.npz`` layout yet) rather
        than silently dropping the restored elements; ``result.compiled``
        remains saveable as the pure-TW part if that is what you want.
        """
        if self.residuals is not None:
            raise ValueError(
                "TEW tuning results do not serialize: the EW residual has "
                "no .npz layout yet — result.compiled.save() stores the "
                "pure-TW part alone if that is acceptable"
            )
        return self.compiled.save(path)


def _as_prunable(model_or_adapter, *, data, train) -> PrunableModel:
    """Normalise any accepted tuning source to a :class:`PrunableModel`.

    Accepts a ready adapter (``TrainedModelAdapter``, ``ArrayModel``, or
    anything satisfying the protocol), an ``repro.nn`` module plus
    ``data=``, or raw weight matrices.  Enforces the fine-tuning contract:
    a ``train=`` override is only accepted where real training state
    exists, never silently dropped.
    """
    m = model_or_adapter
    if hasattr(m, "prunable_weights") and hasattr(m, "loss"):
        from repro.nn.trainer import TrainConfig, TrainedModelAdapter

        if data is None:
            raise ValueError(
                "tuning an repro.nn module needs training data: pass "
                "data=<ClassificationSplit> and tune() will build a "
                "TrainedModelAdapter over model.prunable_weights() / "
                "model.loss, or construct the adapter yourself"
            )
        return TrainedModelAdapter(
            m.prunable_weights(), m.loss, data, train or TrainConfig(epochs=1)
        )
    if isinstance(m, PrunableModel):
        if data is not None:
            raise ValueError(
                "data= only applies when tuning an repro.nn module; this "
                "adapter already owns its training data"
            )
        if train is not None:
            setter = getattr(m, "set_finetune_config", None)
            if setter is None:
                hint = (
                    "ArrayModel wraps raw weight stacks whose fine_tune() "
                    "is a documented no-op — drop train= or wrap real "
                    "training state in repro.nn.trainer.TrainedModelAdapter"
                    if isinstance(m, ArrayModel)
                    else f"{type(m).__name__} exposes no "
                    "set_finetune_config(TrainConfig)"
                )
                raise ValueError(f"train= override rejected: {hint}")
            setter(train)
        return m
    weights, _ = _normalize_weights(m, None)
    if train is not None or data is not None:
        raise ValueError(
            "raw weight stacks cannot be fine-tuned: tune() wraps them in "
            "ArrayModel, whose fine_tune() is a documented no-op — drop "
            "train=/data= or adapt real training state via "
            "repro.nn.trainer.TrainedModelAdapter"
        )
    return ArrayModel(weights)


def tune(
    model_or_adapter,
    *,
    pattern: str = "tw",
    sparsity: float = 0.75,
    granularity: int = 128,
    schedule: GradualSchedule | str | None = "gradual",
    n_stages: int | None = None,
    law: str | None = None,
    importance: ImportanceConfig | str | None = "taylor",
    tew: TEWConfig | float | None = None,
    apriori: AprioriConfig | bool = True,
    train=None,
    data=None,
    evaluate: Callable[[], float] | None = None,
    engine: str = "tensor_core",
    placement: Placement | str | None = None,
    devices: Sequence[DeviceSpec] | None = None,
    dtype: np.dtype | type | None = np.float64,
    prune_config: TWPruneConfig | None = None,
    pattern_kwargs: dict | None = None,
    names: Sequence[str] | None = None,
) -> TuneResult:
    """Run the paper's *training-time* pipeline; returns a :class:`TuneResult`.

    Drives Algorithm 1's loop — schedule stage → importance scoring → prune
    → (optional TEW overlay) → mask-constrained fine-tune — and terminates
    in the same :class:`CompiledTWModel` artifact :func:`compile` produces,
    so ``tune(...).compiled.run()`` is bit-identical to the equivalent
    hand-wired ``TWPruner``/``GradualSchedule`` chain (``tests/test_api.py``
    pins this, mirroring the ``compile`` contract).

    Parameters
    ----------
    model_or_adapter:
        A :class:`~repro.core.pruner.PrunableModel` adapter
        (:class:`~repro.nn.trainer.TrainedModelAdapter` for real training
        state, :class:`~repro.core.pruner.ArrayModel` for frozen arrays),
        an ``repro.nn`` module (pass ``data=`` too), or raw 2-D weight
        matrices (wrapped in ``ArrayModel``; no fine-tuning).
    pattern:
        Registry name.  ``tw`` runs Algorithm 1; ``tew`` is sugar for
        ``tw`` plus a default TEW overlay; the mask-rule baselines
        (``ew``/``vw``/``bw``/``nm``) run the same stage loop with their
        own prune rule (the paper's §VII-A comparison methodology).
    sparsity:
        Final overall target ``S``; ignored when ``schedule`` is an
        explicit :class:`GradualSchedule` instance (its ``target`` wins).
    schedule:
        Registry name (``gradual``, ``oneshot``) or instance;
        ``n_stages``/``law`` feed the registry factory when given.
    importance:
        Registry name (``taylor``, ``magnitude``) or
        :class:`ImportanceConfig`.  Taylor degrades to magnitude for
        models without gradients rather than failing.
    tew:
        ``None`` (no overlay), a δ fraction, or a full
        :class:`TEWConfig`.  The prune schedule then overshoots to
        ``min(S + δ, 0.99)`` and the best δ of *pruned* elements are
        restored at their trained values before a final fine-tune (§IV-A).
    apriori:
        ``True`` (default) injects Algorithm 2's EW-informed prior into
        every TW stage; ``False`` disables; an :class:`AprioriConfig`
        customises.  Ignored by the baseline patterns.
    train:
        Per-stage fine-tuning override (``TrainConfig``); only accepted
        where real training state exists.  ``epochs=0`` is well-defined:
        prune-only stages.
    data:
        Training split used to build the adapter when an ``repro.nn``
        module is passed directly.
    evaluate:
        Optional zero-argument metric callback (e.g.
        ``bundle.evaluate``); called after every stage to populate the
        trajectory.  Must not perturb training state.
    engine / placement / devices / dtype / names:
        Forwarded to the compilation step (same semantics as
        :func:`compile`).
    prune_config:
        Full :class:`TWPruneConfig` override (TW only; ``granularity`` is
        ignored when given).
    pattern_kwargs:
        Extra registry-factory arguments for baseline patterns
        (``vector_size``, ``block_shape``, ``n``/``m``).
    """
    placement = resolve_placement(placement, devices)
    engine = resolve_engine(engine)

    tew_cfg: TEWConfig | None
    if isinstance(tew, TEWConfig):
        tew_cfg = tew
    elif tew is not None:
        tew_cfg = TEWConfig(delta=float(tew))
    else:
        tew_cfg = None
    if pattern == "tew":
        pattern = "tw"
        if tew_cfg is None:
            tew_cfg = TEWConfig()
    elif pattern == "dense":
        raise ValueError(
            "nothing to tune for the dense baseline — "
            "repro.compile(..., pattern='dense') prices and executes it "
            "directly"
        )
    else:
        pattern = PATTERNS.canonical(pattern)
    if tew_cfg is not None and pattern != "tw":
        raise ValueError(
            f"the TEW overlay composes with the tw pattern only, "
            f"got pattern={pattern!r}"
        )

    imp_cfg = resolve_importance(importance)
    sched = resolve_schedule(schedule, target=sparsity, n_stages=n_stages, law=law)
    sparsity = sched.target
    model = _as_prunable(model_or_adapter, data=data, train=train)

    history: list[TuneStage] = []

    def _record(kind: str, target: float, achieved: float) -> None:
        history.append(
            TuneStage(
                index=len(history),
                kind=kind,
                target_sparsity=target,
                achieved_sparsity=achieved,
                metric=evaluate() if evaluate is not None else None,
            )
        )

    tew_sol: TEWSolution | None = None
    residuals: list[CSCMatrix] | None = None
    if pattern == "tw":
        cfg = prune_config or TWPruneConfig(granularity=granularity)
        granularity = cfg.granularity
        if apriori is True:
            apriori_cfg: AprioriConfig | None = AprioriConfig()
        elif isinstance(apriori, AprioriConfig):
            apriori_cfg = apriori
        else:
            apriori_cfg = None

        prune_sched = sched
        snapshot: list[np.ndarray] | None = None
        dense_scores: list[np.ndarray] | None = None
        if tew_cfg is not None:
            # TW to S + δ, then restore the best δ fraction (§IV-A).
            # Restore candidates rank by the *dense* model's importance,
            # captured before pruning — pruned weights score zero after.
            overshoot = min(sparsity + tew_cfg.delta, 0.99)
            prune_sched = dataclasses.replace(sched, target=overshoot)
            snapshot = [w.copy() for w in model.weight_matrices()]
            dense_scores = stage_scores(model, imp_cfg)

        pruner = TWPruner(cfg, prune_sched, imp_cfg, apriori_cfg)
        step: TWStepResult | None = None
        for target, step in pruner.prune_stages(model):
            _record("prune", target, step.achieved_sparsity)
        assert step is not None, "schedule produced no stages"
        masks = [np.asarray(m, dtype=bool) for m in step.masks]
        achieved = step.achieved_sparsity

        if tew_cfg is not None:
            tew_sol = tew_overlay(snapshot, dense_scores, step.masks, tew_cfg)
            # write the restored elements' trained values back before
            # masking — the overlay *revives* weights, it does not merely
            # unmask zeros (weight_matrices() returns live views)
            for w, saved, ew in zip(
                model.weight_matrices(), snapshot, tew_sol.ew_masks
            ):
                w[ew] = saved[ew]
            model.apply_masks(tew_sol.masks)
            model.fine_tune()
            masks = tew_sol.masks
            achieved = tew_sol.overall_sparsity
            _record("overlay", sparsity, achieved)

        final_weights = [np.array(w) for w in model.weight_matrices()]
        _, layer_names = _normalize_weights(final_weights, names)
        layers = [
            _tw_layer(
                w, layer_names[i], cfg, step.col_keeps[i],
                step.row_masks[i], step.masks[i], placement, dtype,
            )
            for i, w in enumerate(final_weights)
        ]
        if tew_sol is None:
            # a TEW residual writes pruned positions: every column is live
            layers = _execution_formats(layers)
        compiled = CompiledTWModel(
            layers,
            pattern="tw",
            sparsity=prune_sched.target,
            granularity=granularity,
            engine=engine,
            placement=placement,
            achieved_sparsity=step.achieved_sparsity,
        )
        if tew_sol is not None:
            residuals = [
                CSCMatrix.from_dense(np.where(ew, w, 0.0))
                for w, ew in zip(final_weights, tew_sol.ew_masks)
            ]
            # the overlay solution was built from the pre-fine-tune snapshot;
            # refresh its execution payload to the final trained values so
            # result.tew.residuals and result.residuals agree (the masks are
            # unchanged by fine-tuning, only the restored values moved)
            tew_sol.residuals = residuals
    else:
        # baseline mask rules through the shared stage loop (§VII-A: every
        # pattern is compared under the same multi-stage methodology)
        pat = make_pattern(pattern, granularity=granularity, **(pattern_kwargs or {}))
        result = None
        for target in sched.stages():
            scores = stage_scores(model, imp_cfg)
            result = pat.prune(scores, target)
            model.apply_masks(result.masks)
            model.fine_tune()
            _record("prune", target, result.achieved_sparsity)
        assert result is not None, "schedule produced no stages"
        masks = [np.asarray(m, dtype=bool) for m in result.masks]
        achieved = result.achieved_sparsity
        final_weights = [np.array(w) for w in model.weight_matrices()]
        _, layer_names = _normalize_weights(final_weights, names)
        layers = [
            CompiledLayer(
                name=layer_names[i], shape=w.shape, dense=w, mask=masks[i]
            )
            for i, w in enumerate(final_weights)
        ]
        compiled = CompiledTWModel(
            layers,
            pattern=pattern,
            sparsity=sparsity,
            granularity=granularity,
            engine=engine,
            placement=placement,
            achieved_sparsity=achieved,
        )

    return TuneResult(
        compiled=compiled,
        pattern="tew" if tew_cfg is not None else pattern,
        sparsity=sparsity,
        granularity=granularity,
        schedule=sched,
        importance=imp_cfg,
        history=history,
        masks=masks,
        tew=tew_sol,
        residuals=residuals,
    )


def load(path: str | Path) -> CompiledTWModel:
    """Load a compiled model saved by :meth:`CompiledTWModel.save`."""
    return CompiledTWModel.load(path)


def demo_layer_stack(
    model: str = "bert",
    *,
    scale: int = 1,
    blocks: int = 2,
    seed: int = 0,
    dtype: np.dtype | type = np.float64,
) -> tuple[list[np.ndarray], list[str]]:
    """A chained random weight stack at a named model's GEMM geometry.

    Serving needs layers whose ``N`` feeds the next layer's ``K``; this
    builds the natural chained sub-stack of each paper model — the
    BERT-base encoder block sequence (4 attention projections + FFN
    expand/contract per block), the VGG-16 FC head, or the NMT
    attention/projection chain — scaled down by ``scale`` for quick demos.
    Returns ``(weights, names)`` ready for :func:`compile`.
    """
    if scale <= 0 or blocks <= 0:
        raise ValueError("scale and blocks must be positive")
    rng = np.random.default_rng(seed)

    def w(k: int, n: int) -> np.ndarray:
        return rng.standard_normal((max(1, k), max(1, n))).astype(dtype)

    weights: list[np.ndarray] = []
    names: list[str] = []
    if model == "bert":
        hidden, ffn = 768 // scale, 3072 // scale
        for b in range(blocks):
            for p in ("q", "k", "v", "o"):
                weights.append(w(hidden, hidden))
                names.append(f"block{b}.attn-{p}")
            weights.append(w(hidden, ffn))
            names.append(f"block{b}.ffn-1")
            weights.append(w(ffn, hidden))
            names.append(f"block{b}.ffn-2")
    elif model == "vgg":
        dims = [512 * 7 * 7 // scale, 4096 // scale, 4096 // scale, 1000 // scale]
        for i, (k, n) in enumerate(zip(dims, dims[1:])):
            weights.append(w(k, n))
            names.append(f"fc{i + 1}")
    elif model == "nmt":
        hidden, vocab = 512 // scale, 8000 // scale
        weights = [w(hidden, hidden), w(hidden, hidden), w(hidden, vocab)]
        names = ["attention", "combine", "vocab-proj"]
    else:
        raise KeyError(f"unknown model {model!r}; expected bert, vgg or nmt")
    return weights, names
