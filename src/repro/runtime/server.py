"""High-throughput TW model serving (ROADMAP north star: many requests).

The paper's pipeline makes weight-side work — compaction into
:class:`~repro.formats.tiled.TiledTWMatrix` and each tile's compute
operand — a *per-model* cost, while every request only pays the GEMMs.  :class:`TWModelServer` operationalises that split:

- **Compiled layers in, GEMMs out**: the server serves the formats that
  :func:`repro.compile` built (:meth:`repro.api.CompiledTWModel.serve`
  registers them with :meth:`TWModelServer.add_layer`) and never compacts.
  The only weight-side work left is building each tile's compute operand
  (:func:`~repro.kernels.masked.tile_operands`);
  :meth:`TWModelServer.warm`, or else the first wave, builds them once.
- **Micro-batching**: concurrent requests' activations stack into one
  matrix, so each layer runs *one* batched GEMM for the whole wave instead
  of one per request (``submit`` + ``flush``; ``serve`` is the
  single-request convenience).
- **Multi-device placement**: a
  :class:`~repro.runtime.placement.Placement` lists the
  :class:`~repro.gpu.device.DeviceSpec`\\ s that serve the model and
  round-robins whole waves across them, one full-model replica each.
  Every device runs the same compiled formats, so a placement needs no
  per-device state.
- **Pluggable execution**: the placement picks each wave's slot
  (:meth:`~repro.runtime.placement.Placement.slot_for_wave`) and an
  :class:`~repro.runtime.executor.Executor` — ``inline`` (the sequential
  oracle) or ``threaded`` (one daemon worker thread per device slot,
  waves handed over as futures) — decides how waves on different slots overlap in
  wall-time.  Outputs are bit-identical across executors; only wall-time
  and the measured occupancy stats change.  Worker threads are torn down
  deterministically by :meth:`TWModelServer.close`.
- **Stats**: per-request latency, per-flush batch sizes, rows/s and
  requests/s over measured flush wall-time (``wall_time_s``), and
  per-device busy time/GEMM counts.
- **Fault tolerance & SLOs** (ISSUE 6): every submitted request reaches a
  *terminal* :attr:`ServedRequest.status` — ``ok``, ``failed`` (poison
  isolated after retries/bisection), ``shed`` (backpressure) or
  ``expired`` (deadline passed before execution).  ``flush()`` retries
  failed waves up to ``max_retries`` and bisects deterministically
  failing waves so one poison request cannot take down its wave-mates.
  ``ServerConfig(faults=...)`` wires a deterministic
  :class:`~repro.runtime.faults.FaultInjector` through every wave for
  chaos testing and recovery benchmarks.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.masked import activation_dtype, gemm_dtypes, tile_operands
from repro.runtime.executor import EXECUTORS, WaveStep, WaveTask, resolve_executor
from repro.runtime.faults import FaultInjector, resolve_faults
from repro.runtime.placement import Placement
# unused here: kept only because twbench/spans.py wraps this module-level
# name; it goes when the benchmark stops reading it
from repro.runtime.scheduler import build_execution_plan  # noqa: F401

__all__ = [
    "QueueFullError",
    "ServerConfig",
    "ServedRequest",
    "ServerStats",
    "TWModelServer",
    "write_stats_json",
]


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when ``max_queue_rows`` is hit under the
    ``reject`` shed policy (or when a single request can never fit)."""


def _int_at_least(lo: int):
    return lambda v: isinstance(v, int) and v >= lo


def _seconds(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0


#: ServerConfig field → (is the value valid?, what a valid value is)
_CONFIG_RULES = {
    "max_wave_rows": (_int_at_least(1), "a positive int"),
    "max_retries": (_int_at_least(0), "a non-negative int"),
    "max_queue_rows": (_int_at_least(0), "a non-negative int (0 = unbounded)"),
    "shed_policy": (lambda v: v in ("reject", "shed_oldest"), "'reject' or 'shed_oldest'"),
    "watchdog_s": (lambda v: v is None or _seconds(v), "finite and >= 0, or None"),
}


@dataclass(frozen=True)
class ServerConfig:
    """Engine configuration for one server instance.

    The one place a serving option is declared, defaulted and validated:
    :meth:`repro.api.CompiledTWModel.serve` forwards its keyword overrides
    here, and the ingress and HTTP fronts read the server's config.
    Granularity and payload dtype are not serving options: they are
    properties of the compiled formats the server is given, and the
    activation dtype follows from the payload dtype
    (:func:`~repro.kernels.masked.activation_dtype`).  Every device slot
    runs the same per-tile gather GEMMs; the GPU launch schedule of paper
    Fig. 7 steps 3–4 belongs to the cost model.

    Attributes
    ----------
    max_wave_rows:
        Row cap per micro-batch wave; larger queues split into successive
        waves (requests never split across waves).  The async ingress
        admits waves under the same cap.
    placement:
        The serving devices (waves round-robin across them); ``None``
        means one V100.
    executor:
        How placed waves execute in wall-time — an
        :data:`~repro.runtime.executor.EXECUTORS` registry name
        (``inline``/``threaded``).  ``inline`` is the sequential oracle;
        ``threaded`` runs one worker thread per device slot so waves on
        different slots overlap wherever BLAS releases the GIL.  Outputs are
        bit-identical in every case.
    max_retries:
        Re-execution budget per failed wave group in a graceful
        ``flush()`` (``0`` = no retries, failures go straight to
        bisection/poison handling).
    max_queue_rows:
        Backpressure bound on queued activation rows (``0`` =
        unbounded).  When a ``submit`` would exceed it, ``shed_policy``
        decides: ``reject`` raises :class:`QueueFullError`; ``shed_oldest``
        drops the oldest queued requests (they surface from the next
        ``flush`` with ``status="shed"``) to make room.  The async ingress
        submits straight into this queue, so the bound covers it too.
    shed_policy:
        ``"reject"`` (default) or ``"shed_oldest"`` — see
        ``max_queue_rows``.
    watchdog_s:
        Per-wave stall bound forwarded to the executor (``None`` =
        executor default, 60s for ``threaded``).  Only
        meaningful for executors with watchdogs; setting it with
        ``inline`` is an error.
    faults:
        Deterministic fault schedule for chaos testing — a
        :class:`~repro.runtime.faults.FaultInjector`, a spec string
        (``"exception:wave=1;latency:rate=0.1"``), or ``None`` (default).
        Attached to every wave so both executors replay the same seeded
        schedule.
    """

    max_wave_rows: int = 8192
    placement: Placement | None = None
    executor: str = "inline"
    max_retries: int = 2
    max_queue_rows: int = 0
    shed_policy: str = "reject"
    watchdog_s: float | None = None
    faults: FaultInjector | str | None = None

    def __post_init__(self) -> None:
        problems = [
            f"{name} must be {what}, got {getattr(self, name)!r}"
            for name, (valid, what) in _CONFIG_RULES.items()
            if not valid(getattr(self, name))
        ]
        if problems:  # one error naming every invalid field
            raise ValueError("invalid ServerConfig: " + "; ".join(problems))
        if self.placement is not None and not isinstance(self.placement, Placement):
            raise TypeError(
                f"placement must be a Placement or None, got {type(self.placement).__name__}"
            )
        if not isinstance(self.executor, str):
            raise TypeError(
                f"executor must be a registry name string, got "
                f"{type(self.executor).__name__}"
            )
        object.__setattr__(self, "executor", EXECUTORS.canonical(self.executor))
        # normalise once so the server (and repeated flushes) always see a
        # ready injector; spec strings parse here, at configuration time
        object.__setattr__(self, "faults", resolve_faults(self.faults))

    def resolved_placement(self) -> Placement:
        """The effective placement (``None`` is one V100)."""
        return self.placement or Placement()


@dataclass
class ServedRequest:
    """One *terminal* request: output (when served) plus observed latency.

    ``status`` is the terminal disposition every submitted request is
    guaranteed to reach under a graceful ``flush()``:

    - ``"ok"``      — served; ``output`` holds the result rows.
    - ``"failed"``  — the request failed deterministically even alone
      (poison, isolated by retry + bisection); ``error`` holds the last
      failure, ``output`` is ``None``.
    - ``"shed"``    — dropped by ``max_queue_rows`` backpressure under the
      ``shed_oldest`` policy; ``output`` is ``None``.
    - ``"expired"`` — its ``deadline_s`` passed before any GEMM ran;
      ``output`` is ``None``.

    ``latency_s`` is enqueue→terminal wall-time in every case — anchored
    at the *arrival* timestamp (``submit(..., enqueued_at=)``) when a
    front observed the request before submitting it, so time spent
    before admission counts.  For ``"ok"`` requests it splits as
    ``latency_s == queue_wait_s + service_s``: ``queue_wait_s`` is
    arrival→wave-launch (server queue + any retry churn before the wave
    that finally served it) and ``service_s`` is
    that wave's executor service (GEMM wall time).  Non-``ok`` requests
    never complete a wave, so the whole latency is queue wait
    (``service_s == 0``).  ``batch_id`` is the last wave that ran (or
    tried to run) the request, ``-1`` if it never entered a wave.
    """

    request_id: int
    output: np.ndarray | None
    rows: int
    latency_s: float
    batch_id: int
    status: str = "ok"
    error: BaseException | None = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0

    @classmethod
    def unserved(
        cls, request_id: int, rows: int, arrived: float, status: str, now: float,
        batch_id: int = -1, error: BaseException | None = None,
    ) -> "ServedRequest":
        """A request that ends with no output: all its latency is queue wait."""
        wait = now - arrived
        return cls(request_id, None, rows, wait, batch_id, status, error, wait)


#: per-request latencies retained for percentile-style inspection; older
#: entries age out so a long-lived server's stats stay O(1) memory
LATENCY_WINDOW = 4096


@dataclass
class ServerStats:
    """Running counters; throughput is rows (or requests) over flush wall
    time, :attr:`wall_time_s` (on a server that was not ``warm()``\\ ed,
    the first wave's GEMMs also build the tile operands)."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    gemms: int = 0
    #: compiled-format lookups, one per layer per assembled wave
    format_hits: int = 0
    #: always 0: the server serves the compiled formats and never
    #: compacts; kept so hit-rate readers see the same counter set
    format_misses: int = 0
    #: always 0 (the server runs no plans); kept only because
    #: twbench/common.py reads it, like ``format_misses``
    plan_hits: int = 0
    #: always 0; kept only because twbench/common.py reads it
    plan_misses: int = 0
    busy_s: float = 0.0
    #: measured wall-clock seconds spent inside executor runs (``flush``);
    #: compare it across executors for a speed-up — slot busy time grows
    #: when worker threads share cores, so ``busy_s / wall_time_s`` is not one
    wall_time_s: float = 0.0
    latency_total_s: float = 0.0
    #: wave-group re-executions after a failure (graceful ``flush`` only)
    retries: int = 0
    #: requests put back in the work queue by a retry or bisection
    requeues: int = 0
    #: requests dropped by ``max_queue_rows`` backpressure (``shed_oldest``)
    shed: int = 0
    #: requests shed because their ``deadline_s`` passed before execution
    expired: int = 0
    #: requests isolated as poison (terminal ``status="failed"``)
    poisoned: int = 0
    latencies_s: deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    #: GEMM busy seconds attributed to each placement slot (``name#index``;
    #: two replicas of the same device model are distinct slots)
    device_busy_s: dict[str, float] = field(default_factory=dict)
    #: GEMM launches attributed to each placement slot (``name#index``)
    device_gemms: dict[str, int] = field(default_factory=dict)

    def rows_per_s(self) -> float:
        """Activation rows served per second of flush wall time.

        Wall time, not :attr:`busy_s`: busy time adds up every slot's
        GEMM time, so with two slots overlapping it would halve the rate.
        """
        return self.rows / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def requests_per_s(self) -> float:
        """Requests completed per second of flush wall time."""
        return self.requests / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def mean_latency_s(self) -> float:
        """Mean per-request latency (queueing + execution) over all requests."""
        return self.latency_total_s / self.requests if self.requests else 0.0

    def critical_path_s(self) -> float:
        """Busiest single slot's measured GEMM busy time — the makespan bound.

        With perfect overlap across replicas, wall time approaches
        this instead of :attr:`busy_s` (the sum over slots); the ratio
        ``busy_s / critical_path_s`` is the placement's parallel headroom,
        computed from measured busy time, not from a cost model.
        """
        return max(self.device_busy_s.values(), default=0.0)

    def percentile_latency_s(self, q: float) -> float:
        """Latency percentile over the retained window (0.0 when empty).

        Computed from :attr:`latencies_s`, the rolling
        :data:`LATENCY_WINDOW`-deep deque of per-request enqueue→terminal
        latencies — a long-lived server reports *recent* percentiles, not
        lifetime ones.
        """
        if not self.latencies_s:
            return 0.0
        window = np.fromiter(self.latencies_s, dtype=np.float64)
        return float(np.percentile(window, q))

    def p50_latency_s(self) -> float:
        return self.percentile_latency_s(50.0)

    def p95_latency_s(self) -> float:
        return self.percentile_latency_s(95.0)

    def p99_latency_s(self) -> float:
        return self.percentile_latency_s(99.0)

    def record(self) -> dict:
        """JSON-ready snapshot of every counter and derived metric.

        The structured twin of the CLI's stats table: plain dicts of
        numbers (no numpy scalars), safe to ``json.dump`` as-is.  The
        server adds queue/wave/topology context on top of this in
        :meth:`TWModelServer.stats_record`.
        """
        wall = self.wall_time_s
        fmt_total = self.format_hits + self.format_misses
        return {
            "requests": self.requests,
            "rows": self.rows,
            "gemms": self.gemms,
            "rows_per_s": round(self.rows_per_s(), 2),
            "requests_per_s": round(self.requests_per_s(), 2),
            "latency_ms": {
                "mean": round(self.mean_latency_s() * 1e3, 3),
                "p50": round(self.p50_latency_s() * 1e3, 3),
                "p95": round(self.p95_latency_s() * 1e3, 3),
                "p99": round(self.p99_latency_s() * 1e3, 3),
                "window": len(self.latencies_s),
            },
            "busy_s": round(self.busy_s, 6),
            "wall_time_s": round(wall, 6),
            "device_busy_pct": {
                label: round(100.0 * busy / wall, 1) if wall > 0 else 0.0
                for label, busy in sorted(self.device_busy_s.items())
            },
            "device_gemms": dict(sorted(self.device_gemms.items())),
            "cache": {
                "format_hits": self.format_hits,
                "format_misses": self.format_misses,
                "format_hit_rate": (
                    round(self.format_hits / fmt_total, 4) if fmt_total else 0.0
                ),
            },
            "slo": {
                "retries": self.retries,
                "requeues": self.requeues,
                "shed": self.shed,
                "expired": self.expired,
                "poisoned": self.poisoned,
            },
        }


def write_stats_json(path: str, record: dict) -> None:
    """Write a ``stats_record()`` snapshot to ``path`` as sorted, indented JSON."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class _Pending:
    """One queued request: activations plus its admission metadata.

    ``deadline_at`` is an absolute ``perf_counter`` timestamp (``None`` =
    no deadline); ``attempts`` counts failed wave executions this request
    has been part of since its group last (re)formed — reset on bisection
    so each half gets a fresh budget.
    """

    rid: int
    x: np.ndarray
    submitted_at: float
    deadline_at: float | None = None
    attempts: int = 0


class TWModelServer:
    """Serve a stack of compiled TW layers.

    Layers are registered as compiled
    :class:`~repro.formats.tiled.TiledTWMatrix` formats (:meth:`add_layer`;
    :meth:`repro.api.CompiledTWModel.serve` does this for a compiled
    model).  A request's activations flow through
    every layer in order (``K`` of layer ``l+1`` must equal ``N`` of layer
    ``l``); pruned output columns are exact zeros, so chaining is closed
    under TW execution.

    Threads: ``submit`` may run on one thread while ``flush`` runs on
    another (the async ingress runs both on its event loop's thread); one
    lock guards the queue while ``submit`` enqueues and while ``flush``
    takes its wave.  Two concurrent ``flush`` calls are not supported.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.placement = self.config.resolved_placement()
        self.executor = resolve_executor(
            self.config.executor, watchdog_s=self.config.watchdog_s
        )
        self.stats = ServerStats()
        #: one step per registered layer, shared by every wave
        self._layers: list[WaveStep] = []
        self._closed = False
        #: guards the queue: ``_pending``, ``_queued_rows``,
        #: ``_shed_buffer`` and ``_next_id``
        self._lock = threading.Lock()
        self._pending: deque[_Pending] = deque()
        self._queued_rows = 0
        #: requests shed at submit time (``shed_oldest``), surfaced by the
        #: next ``flush`` so every request still reaches a terminal status
        self._shed_buffer: list[ServedRequest] = []
        self._next_id = 0
        self._batch_id = 0

    # ------------------------------------------------------------------ #
    # model registration
    # ------------------------------------------------------------------ #
    def add_layer(self, tw: TiledTWMatrix, *, epilogue=None) -> None:
        """Register one compiled layer.

        The server serves ``tw`` itself (never a copy, never a
        recompaction).  ``epilogue`` optionally attaches a fused
        :class:`~repro.kernels.fusion.EpilogueSpec` that every wave applies
        right after this layer's GEMM (same semantics as
        :meth:`repro.api.CompiledTWModel.run`).  A compiled model registers
        its execution formats and epilogues, which may be in live
        coordinates (:mod:`repro.kernels.liveness`): consecutive layers
        need only chain, and only the first layer's ``K`` and the last
        layer's ``N`` are the model's input and output widths.
        """
        if not isinstance(tw, TiledTWMatrix):
            raise TypeError(
                f"add_layer takes a compiled TiledTWMatrix, got {type(tw).__name__}"
            )
        if self._layers and self._layers[-1].tw.shape[1] != tw.shape[0]:
            raise ValueError(
                f"layer K={tw.shape[0]} does not chain onto previous "
                f"layer N={self._layers[-1].tw.shape[1]}"
            )
        self._layers.append(WaveStep(layer=len(self._layers), tw=tw, epilogue=epilogue))

    @property
    def n_layers(self) -> int:
        """Registered layers."""
        return len(self._layers)

    @property
    def model_k(self) -> int | None:
        """Input width a request row must have (``None`` before layers)."""
        return self._layers[0].tw.shape[0] if self._layers else None

    def check_request(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a ``rows × K`` request (a 1-D vector is one row).

        Raises :class:`ValueError` for any other rank, or a ``K`` other
        than the model's, so a malformed request never reaches a wave.
        """
        x = np.atleast_2d(np.asarray(x))
        if x.ndim != 2:
            raise ValueError(f"request must be 2-D (rows x K), got shape {x.shape}")
        if self._layers and x.shape[1] != self.model_k:
            raise ValueError(f"request K={x.shape[1]} != model K={self.model_k}")
        return x

    def warm(self) -> None:
        """Build every layer's tile operands in its compute dtype.

        The operands are memoised on the compiled formats (shared with
        ``run()``), so the first request then only pays the GEMMs.
        """
        for layer in self._layers:
            tw = layer.tw
            tile_operands(tw, gemm_dtypes(activation_dtype(tw.dtype), tw.dtype)[0])

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(
        self,
        x: np.ndarray,
        *,
        deadline_s: float | None = None,
        enqueued_at: float | None = None,
    ) -> int:
        """Queue one request's activations (``rows × K``); returns its id.

        ``deadline_s`` is an optional latency budget, relative to the
        request's enqueue time: a request whose deadline passes before it
        executes is *shed* at the next ``flush`` (terminal
        ``status="expired"``, no GEMM runs for it), and waves assemble
        shortest-deadline-first.

        ``enqueued_at`` is an optional ``perf_counter`` timestamp of when
        the request *arrived* (defaults to now).  A front that observed the
        request earlier (the HTTP server, at socket accept) passes its
        arrival stamp here so reported latency and the deadline budget
        start at arrival.

        When ``max_queue_rows`` is configured and this submit would
        exceed it, the ``shed_policy`` applies: ``reject`` raises
        :class:`QueueFullError`; ``shed_oldest`` drops the oldest queued
        requests to make room (they surface from the next ``flush`` with
        ``status="shed"``).  A request that is not ``rows × K`` raises
        :class:`ValueError` (:meth:`check_request`).
        """
        x = self.check_request(x)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if not np.isfinite(deadline_s) or deadline_s < 0:
                raise ValueError(
                    f"deadline_s must be finite and non-negative, got {deadline_s!r}"
                )
        now = time.perf_counter()
        arrival = now
        if enqueued_at is not None:
            arrival = float(enqueued_at)
            if arrival > now:
                raise ValueError("enqueued_at must not be in the future")
        rows, bound = x.shape[0], self.config.max_queue_rows
        if bound and rows > bound:
            raise QueueFullError(
                f"request of {rows} rows can never fit max_queue_rows={bound}"
            )
        with self._lock:
            if bound and self._queued_rows + rows > bound:
                if self.config.shed_policy == "reject":
                    raise QueueFullError(
                        f"queue holds {self._queued_rows} rows; admitting "
                        f"{rows} more would exceed max_queue_rows={bound}"
                    )
                # shed_oldest: rows <= bound, so the queue empties first
                while self._queued_rows + rows > bound:
                    victim = self._pending.popleft()
                    self._queued_rows -= victim.x.shape[0]
                    self.stats.shed += 1
                    self._shed_buffer.append(ServedRequest.unserved(
                        victim.rid, victim.x.shape[0], victim.submitted_at, "shed", now
                    ))
            rid = self._next_id
            self._next_id += 1
            self._pending.append(
                _Pending(
                    rid=rid,
                    x=x,
                    submitted_at=arrival,
                    deadline_at=None if deadline_s is None else arrival + deadline_s,
                )
            )
            self._queued_rows += rows
        return rid

    def flush(self, *, max_rows: int | None = None) -> list[ServedRequest]:
        """Run queued requests as micro-batched GEMMs (one per layer).

        With ``max_rows`` the flush takes only the first requests, in
        the order below, that fit ``max_rows`` rows (at least one) and
        leaves the rest queued; requests shed since the last flush
        still surface.  Without it the whole queue drains.

        Waves larger than ``max_wave_rows`` split into successive
        micro-batches; requests never split across waves, and waves
        assemble shortest-deadline-first (FIFO among requests without
        deadlines).  The placement picks each wave's device slot
        (:meth:`~repro.runtime.placement.Placement.slot_for_wave`) and
        the configured executor runs the whole wave list.  Outputs are
        bit-identical across executors.

        Every request the flush takes reaches a terminal
        :attr:`ServedRequest.status` and nothing raises: expired requests
        are shed before any GEMM runs for them; a failed wave group
        retries whole up to ``max_retries`` under *fresh* wave indices, so
        transient faults clear on retry; a group still failing after its budget is
        *bisected* (fresh budgets per half), so a deterministically
        failing poison request terminates alone with ``status="failed"``
        instead of taking down its wave-mates.  Total work is bounded by
        ``O(n · max_retries · log n)`` wave executions.  Results are
        returned sorted by request id.
        """
        with self._lock:
            served: list[ServedRequest] = self._shed_buffer
            self._shed_buffer = []
            # take from the queue shortest-deadline-first; the sort is
            # stable, so deadline-free traffic stays strictly FIFO
            ordered = sorted(
                self._pending,
                key=lambda p: (
                    p.deadline_at if p.deadline_at is not None else math.inf
                ),
            )
            n = rows = 0
            for p in ordered:
                if max_rows is not None and n and rows + p.x.shape[0] > max_rows:
                    break
                n, rows = n + 1, rows + p.x.shape[0]
            ordered = ordered[:n]
            taken = {p.rid for p in ordered}
            # what stays queued keeps arrival order (shed_oldest reads it)
            self._pending = deque(p for p in self._pending if p.rid not in taken)
            self._queued_rows -= rows
        work: deque[list[_Pending]] = deque()
        group: list[_Pending] = []
        rows = 0
        for p in ordered:
            r = p.x.shape[0]
            if group and rows + r > self.config.max_wave_rows:
                work.append(group)
                group, rows = [], 0
            group.append(p)
            rows += r
        if group:
            work.append(group)
        while work:
            waves: list[list[_Pending]] = []
            wave_ids: list[int] = []
            build_failures: list[tuple[list[_Pending], BaseException]] = []
            results = self._run_waves(work, waves, wave_ids, served, build_failures)
            for g, batch_id, result in zip(waves, wave_ids, results):
                self._merge_accounting(result)
                if result.error is None:
                    self._emit_ok(g, batch_id, result, served)
                    continue
                self._handle_failed_group(
                    g, result.error, batch_id, result.done_at, work, served
                )
            for g, exc in build_failures:
                self._handle_failed_group(g, exc, -1, 0.0, work, served)
        served.sort(key=lambda r: r.request_id)
        return served

    def _run_waves(
        self,
        work: deque[list[_Pending]],
        waves: list[list[_Pending]],
        wave_ids: list[int],
        served: list[ServedRequest],
        build_failures: list,
    ):
        """One executor pass over the current work queue (lazy stream).

        Waves are built as the executor admits them: requests leave
        ``work`` one group at a time (bounded peak memory), and when
        execution fails the executor stops pulling — the unconsumed tail
        stays on ``work`` for the caller.  Expired requests are shed into
        ``served``; a group whose wave cannot even be assembled lands on
        ``build_failures``.  Waves are assembled on the calling thread
        inside ``_wave_task``, so ``busy_s`` times GEMM execution only; a
        pass whose groups all expired or failed to build never starts the
        executor.
        """

        def task_stream():
            while work:
                g = self._shed_expired(work.popleft(), served)
                if not g:
                    continue
                try:
                    task = self._wave_task(g)
                except Exception as exc:
                    # wave assembly itself failed (e.g. a malformed
                    # request breaks the concatenate): route the group
                    # through failure handling instead of blowing up
                    build_failures.append((g, exc))
                    continue
                waves.append(g)
                wave_ids.append(task.index)
                yield task

        stream = task_stream()
        first = next(stream, None)
        if first is None:  # everything left had expired or failed to build
            return []
        t0 = time.perf_counter()
        results = self.executor.run(itertools.chain((first,), stream))
        self.stats.wall_time_s += time.perf_counter() - t0
        return results

    def _handle_failed_group(
        self,
        g: list[_Pending],
        error: BaseException,
        batch_id: int,
        done_at: float,
        work: deque[list[_Pending]],
        served: list[ServedRequest],
    ) -> None:
        """Retry, bisect, or poison-isolate one failed wave group."""
        for p in g:
            p.attempts += 1
        if g[0].attempts <= self.config.max_retries:
            self.stats.retries += 1
            self.stats.requeues += len(g)
            work.append(g)
        elif len(g) > 1:
            # deterministic failure: bisect to isolate the poison; each
            # half gets a fresh attempt budget
            mid = len(g) // 2
            self.stats.requeues += len(g)
            for half in (g[:mid], g[mid:]):
                for p in half:
                    p.attempts = 0
                work.append(half)
        else:
            p = g[0]
            self.stats.poisoned += 1
            served.append(ServedRequest.unserved(
                p.rid, p.x.shape[0], p.submitted_at, "failed",
                done_at or time.perf_counter(), batch_id, error,
            ))

    def _merge_accounting(self, result) -> None:
        """Merge one wave's measured occupancy — including a failed wave's
        pre-failure work — so stats never lose busy time."""
        if not result.gemms:
            return  # nothing ran: the slot stays out of the stats
        st, label = self.stats, result.label
        st.device_busy_s[label] = st.device_busy_s.get(label, 0.0) + result.busy_s
        st.device_gemms[label] = st.device_gemms.get(label, 0) + result.gemms
        st.busy_s += result.busy_s
        st.gemms += result.gemms

    def _emit_ok(
        self,
        group: list[_Pending],
        batch_id: int,
        result,
        served: list[ServedRequest],
    ) -> None:
        """Slice one successful wave's output back into per-request results."""
        self.stats.batches += 1
        offset = 0
        service = max(0.0, result.done_at - result.started_at)
        for p in group:
            r = p.x.shape[0]
            latency = result.done_at - p.submitted_at
            self.stats.requests += 1
            self.stats.rows += r
            self.stats.latency_total_s += latency
            self.stats.latencies_s.append(latency)
            served.append(
                ServedRequest(
                    request_id=p.rid,
                    output=result.output[offset : offset + r],
                    rows=r,
                    latency_s=latency,
                    batch_id=batch_id,
                    queue_wait_s=max(0.0, latency - service),
                    service_s=service,
                )
            )
            offset += r

    def _shed_expired(
        self, group: list[_Pending], served: list[ServedRequest]
    ) -> list[_Pending]:
        """Drop already-expired requests from a group before any GEMM runs."""
        now = time.perf_counter()
        keep: list[_Pending] = []
        for p in group:
            if p.deadline_at is not None and now >= p.deadline_at:
                self.stats.expired += 1
                served.append(ServedRequest.unserved(
                    p.rid, p.x.shape[0], p.submitted_at, "expired", now
                ))
            else:
                keep.append(p)
        return keep

    def serve(self, x: np.ndarray) -> ServedRequest:
        """Submit one request and flush immediately."""
        rid = self.submit(x)
        for req in self.flush():
            if req.request_id == rid:
                return req
        raise RuntimeError(f"request {rid} did not reach a terminal status")

    def stats_record(self) -> dict:
        """Structured observability snapshot (ROADMAP item 5c, JSON-ready).

        :meth:`ServerStats.record` plus the server-level context the bare
        counters can't see: current queue depth, realised wave occupancy
        (mean admitted rows vs ``max_wave_rows``), and the
        executor/placement topology.  Safe to call at any quiescent point;
        when an ingress loop polls it while a flush runs on another
        thread, the snapshot is advisory (counters mid-update), which is
        fine for dashboards and periodic logs.
        """
        st = self.stats
        rec = st.record()
        rec["queue"] = {
            "depth_requests": len(self._pending),
            "depth_rows": self._queued_rows,
            "max_queue_rows": self.config.max_queue_rows,
        }
        mean_wave_rows = st.rows / st.batches if st.batches else 0.0
        rec["waves"] = {
            "count": st.batches,
            "mean_rows": round(mean_wave_rows, 2),
            "max_wave_rows": self.config.max_wave_rows,
            "occupancy": (
                round(mean_wave_rows / self.config.max_wave_rows, 4)
                if self.config.max_wave_rows
                else 0.0
            ),
        }
        rec["executor"] = self.executor.describe()
        rec["placement"] = {
            "devices": [d.name for d in self.placement.devices],
            "slots": self.placement.n_devices,
        }
        return rec

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Tear the server down deterministically (idempotent).

        Shuts the executor's worker threads down.  Serving after
        ``close()`` respawns them on the next run.
        """
        if self._closed:
            return
        self._closed = True
        self.executor.close()

    def __enter__(self) -> "TWModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wave_task(self, wave: list[_Pending]) -> WaveTask:
        """Resolve one wave into a task on its placement slot.

        The wave's activations are cast once to the activation dtype of
        the compiled formats, by the rule :meth:`repro.api.CompiledTWModel.run`
        uses, so serving and ``run()`` execute the same numerics.
        """
        batch = np.concatenate([p.x for p in wave], axis=0)
        if self._layers:
            batch = batch.astype(activation_dtype(self._layers[0].tw.dtype), copy=False)
        slot = self.placement.slot_for_wave(self._batch_id)
        self.stats.format_hits += self.n_layers
        task = WaveTask(
            index=self._batch_id,
            batch=batch,
            steps=tuple(self._layers),
            slot=slot,
            label=self.placement.device_labels()[slot],
            faults=self.config.faults,
        )
        self._batch_id += 1
        return task
