"""Tile-wise sparsity (SC 2020) reproduction — grown into a serving stack.

Quickstart — one front door
---------------------------
The paper's pipeline (tile-wise prune → compact TW format → per-tile
gather GEMM execution) is exposed as a single call::

    import numpy as np, repro

    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((256, 256)) for _ in range(3)]

    model = repro.compile(weights, pattern="tw", sparsity=0.75, granularity=64)
    model.prune_report()                  # achieved sparsity, tile geometry
    model.price(m=4096).gemm_speedup      # cost-model latency vs dense
    y = model.run(rng.standard_normal((8, 256)))   # batched TW forward
    model.save("model.npz")               # offline artifact (repro.load)
    server = model.serve()                # warm TWModelServer

Multi-device placement (the serving scale-out axis)::

    from repro.gpu.device import V100
    from repro.runtime.placement import Placement

    replicated = repro.compile(
        weights, placement=Placement("replicated", (V100, V100)))
    server = replicated.serve(executor="threaded")  # waves alternate slots

Training-time pruning (the paper's accuracy procedure) has its own front
door, terminating in the same compiled artifact::

    result = repro.tune(adapter, pattern="tw", sparsity=0.75,
                        schedule="gradual", n_stages=4, tew=0.05)
    result.trajectory()                   # per-stage sparsity / metric
    server = result.compiled.serve()      # tune → compile → serve

Patterns (``tw ew vw bw nm``), engines (``tensor_core cuda_core``),
placements (``single replicated``), schedules
(``gradual oneshot``) and importance metrics (``taylor magnitude``) are
string-registry entries — see :mod:`repro.patterns.registry`,
:mod:`repro.runtime.placement`, :mod:`repro.core.schedule` and
:mod:`repro.core.importance`.  The pieces the facade composes remain
importable for research use: :mod:`repro.core` (Algorithm 1),
:mod:`repro.formats` (compact layouts), :mod:`repro.kernels` (functional
GEMMs), :mod:`repro.gpu` (cost models), :mod:`repro.runtime` (plans +
serving), :mod:`repro.experiments` (accuracy/latency pipelines).

The CLI mirrors the facade:
``python -m repro {prune,tune,latency,sweep,serve,info}``.
"""

__version__ = "0.3.0"

#: lazily-resolved public surface → defining module (PEP 562); keeps
#: ``import repro`` free of numpy-heavy imports until an attribute is used
_EXPORTS = {
    "compile": "repro.api",
    "tune": "repro.api",
    "load": "repro.api",
    "CompiledTWModel": "repro.api",
    "CompiledLayer": "repro.api",
    "PriceReport": "repro.api",
    "TuneResult": "repro.api",
    "TuneStage": "repro.api",
    "Placement": "repro.runtime.placement",
    "TWModelServer": "repro.runtime.server",
    "ServerConfig": "repro.runtime.server",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
