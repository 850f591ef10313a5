"""End-to-end inference runtime on the simulator.

Combines per-layer GEMM pricing with the non-GEMM kernels, transpose
placement and fusion decisions of paper §VI, producing the Fig. 15
end-to-end breakdowns and the Fig. 14 accuracy-latency trade-off points.

Execution pipeline (paper Fig. 7, steps 3–4)
--------------------------------------------
On a GPU a TW layer launches as **plan → batch → stream → execute**:

1. :func:`~repro.runtime.batching.batching_plan` groups a layer's
   equal-width tiles into :class:`~repro.runtime.batching.BatchGroup`
   batched kernels;
2. :func:`~repro.runtime.scheduler.assign_streams` spreads the groups over
   concurrent streams (:class:`~repro.runtime.scheduler.StreamAssignment`,
   whose ``execution_order`` is the observable issue order);
3. :func:`~repro.runtime.scheduler.build_execution_plan` bundles both into
   an :class:`~repro.runtime.scheduler.ExecutionPlan`;
4. :func:`repro.gpu.tw_kernel.tw_gemm_cost` models the same batching and
   streaming from the layer's tile statistics
   (:class:`~repro.gpu.tw_kernel.TWShapeStats`); it reads no
   ``ExecutionPlan``.

The host runs none of these plans: :func:`repro.kernels.masked.tw_gemm`
walks the weight's tiles as gather GEMMs, and since each tile writes only
its own output columns, no launch order could change a value.

Modules
-------
- :mod:`repro.runtime.engine` — the :class:`InferenceEngine` orchestrator;
- :mod:`repro.runtime.layout` — transpose-kernel placement and cost;
- :mod:`repro.runtime.batching` — cross-tile batching plans;
- :mod:`repro.runtime.scheduler` — stream assignment + execution plans;
- :mod:`repro.runtime.placement` — multi-device placement policies
  (``single`` / ``replicated``): which device slot runs each wave;
- :mod:`repro.runtime.executor` — pluggable wave executors
  (``inline`` / ``threaded``): how placed waves actually run in
  wall-time (bit-identical outputs in every case; ``inline`` is the
  standing oracle);
- :mod:`repro.runtime.faults` — seeded, deterministic fault injection
  (``exception`` / ``latency``) keyed by
  ``(wave, layer, slot)`` sites, for chaos testing the serving path;
- :mod:`repro.runtime.server` — :class:`TWModelServer`, the serving layer
  that serves a compiled model's formats, micro-batches
  concurrent requests into one GEMM per layer, dispatches waves across a
  :class:`~repro.runtime.placement.Placement`'s devices through the
  configured :class:`~repro.runtime.executor.Executor`, and degrades
  gracefully under faults and overload (retry + poison isolation,
  deadline shedding, queue backpressure);
- :mod:`repro.runtime.ingress` — :class:`ServingLoop`, the asyncio
  traffic layer: continuous batching over a live request stream (the
  admission loop assembles the next wave from whatever is backlogged
  the moment the executor frees up), bit-identical to a sequential
  drain of the same stream;
- :mod:`repro.runtime.wire` — the versioned binary tensor frame +
  JSON fallback and the shared HTTP/1.1 framing helpers;
- :mod:`repro.runtime.netserve` — :class:`NetServer`, the dependency-free
  asyncio HTTP front door over :class:`ServingLoop` (``POST /v1/infer``
  with deadline propagation and status→HTTP mapping, ``/healthz``,
  ``/v1/stats``, graceful SIGTERM drain);
- :mod:`repro.runtime.netclient` — stdlib blocking + asyncio clients and
  :class:`HttpLoadTransport`, the connection pool twbench's
  ``http_small`` workload sends its load through.
"""

from repro.runtime.engine import EndToEndReport, EngineConfig, InferenceEngine, LayerPlan
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
from repro.runtime.layout import TransposePlan, transpose_cost
from repro.runtime.netclient import (
    AsyncInferClient,
    HttpLoadTransport,
    InferClient,
    NetResult,
)
from repro.runtime.netserve import NetServer
from repro.runtime.wire import WireError
from repro.runtime.batching import BatchGroup, batching_plan
from repro.runtime.placement import PLACEMENTS, Placement, resolve_placement
from repro.runtime.scheduler import (
    ExecutionPlan,
    StreamAssignment,
    assign_streams,
    build_execution_plan,
)
from repro.runtime.server import (
    QueueFullError,
    ServedRequest,
    ServerConfig,
    ServerStats,
    TWModelServer,
)

__all__ = [
    "Placement",
    "PLACEMENTS",
    "resolve_placement",
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
    "InferenceEngine",
    "EngineConfig",
    "LayerPlan",
    "EndToEndReport",
    "TransposePlan",
    "transpose_cost",
    "BatchGroup",
    "batching_plan",
    "StreamAssignment",
    "assign_streams",
    "ExecutionPlan",
    "build_execution_plan",
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
