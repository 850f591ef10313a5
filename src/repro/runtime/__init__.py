"""The serving stack: a compiled model's waves, from HTTP to the kernels.

A request travels **wire → netserve → ingress → server → placement →
executor → kernels**.  The cost model that prices a forward pass lives in
:mod:`repro.gpu.engine`; nothing here simulates device time.

Modules
-------
- :mod:`repro.runtime.wire` — the versioned binary tensor frame + JSON
  fallback and the shared HTTP/1.1 framing helpers;
- :mod:`repro.runtime.netserve` — :class:`NetServer`, the dependency-free
  asyncio HTTP front door over :class:`ServingLoop` (``POST /v1/infer``
  with deadline propagation and status→HTTP mapping, ``/healthz``,
  ``/v1/stats``, graceful SIGTERM drain);
- :mod:`repro.runtime.netclient` — stdlib blocking + asyncio clients and
  :class:`HttpLoadTransport`, the connection pool twbench's
  ``http_small`` workload sends its load through;
- :mod:`repro.runtime.ingress` — :class:`ServingLoop`, the asyncio
  traffic layer: continuous batching over a live request stream (it
  submits into the server's queue and flushes the next wave the moment
  the executor frees up), bit-identical to a sequential drain of the
  same stream;
- :mod:`repro.runtime.server` — :class:`TWModelServer`, which
  micro-batches concurrent requests into one GEMM per layer, dispatches
  each wave to a slot of its
  :class:`~repro.runtime.placement.Placement` through the configured
  :class:`~repro.runtime.executor.Executor`, and degrades gracefully
  under faults and overload (retry + poison isolation, deadline
  shedding, queue backpressure);
- :mod:`repro.runtime.placement` — :class:`Placement`, the ordered
  device list; waves round-robin across its slots;
- :mod:`repro.runtime.executor` — pluggable wave executors
  (``inline`` / ``threaded``), bit-identical outputs in every case;
  ``inline`` is the standing oracle.  A wave runs each layer's
  :func:`repro.kernels.masked.tw_gemm` on the layer's tiles, then its
  fused epilogue;
- :mod:`repro.runtime.faults` — seeded, deterministic fault injection
  (``exception`` / ``latency``) keyed by ``(wave, layer, slot)`` sites,
  for chaos testing the serving path;
- :mod:`repro.runtime.batching` / :mod:`repro.runtime.scheduler` — the
  GPU launch schedule of one TW layer (paper Fig. 7: equal-width tiles
  batched, groups spread over streams), which nothing here executes or
  prices.  ``repro.compile`` builds it for the repository benchmark
  alone, so this package does not re-export it: import it from those
  modules.
"""

from repro.runtime.executor import (
    EXECUTORS,
    Executor,
    InlineExecutor,
    ThreadedExecutor,
    available_executors,
    resolve_executor,
)
from repro.runtime.faults import (
    FAULTS,
    FaultInjector,
    FaultRule,
    InjectedFault,
    available_faults,
    resolve_faults,
)
from repro.runtime.ingress import IngressClosed, ServingLoop
from repro.runtime.netclient import (
    AsyncInferClient,
    HttpLoadTransport,
    InferClient,
    NetResult,
)
from repro.runtime.netserve import NetServer
from repro.runtime.wire import WireError
from repro.runtime.placement import Placement
from repro.runtime.server import (
    QueueFullError,
    ServedRequest,
    ServerConfig,
    ServerStats,
    TWModelServer,
)

__all__ = [
    "Placement",
    "Executor",
    "EXECUTORS",
    "InlineExecutor",
    "ThreadedExecutor",
    "available_executors",
    "resolve_executor",
    "FAULTS",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "available_faults",
    "resolve_faults",
    "QueueFullError",
    "TWModelServer",
    "ServerConfig",
    "ServerStats",
    "ServedRequest",
    "ServingLoop",
    "IngressClosed",
    "NetServer",
    "InferClient",
    "AsyncInferClient",
    "HttpLoadTransport",
    "NetResult",
    "WireError",
]
