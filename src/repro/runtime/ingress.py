"""Async serving ingress: continuous batching over :class:`TWModelServer`.

The server's ``submit``/``flush`` API is lock-step — callers queue a
batch, drain it, and the executor idles until the next drain.  This
module adds the traffic layer (ROADMAP item 1): an asyncio
:class:`ServingLoop` whose background *admission loop* assembles the
next wave from whatever is backlogged the moment the executor frees up,
so a steady request stream keeps waves full with no offline batching.

Design notes (why this is simple *and* bit-identical):

- **One admission path, zero locks on the server.**  The event-loop
  thread owns the ingress backlog; each admission iteration takes at
  most one wave's worth of requests (never splitting a request),
  ``submit``\\ s them, and runs ``server.flush()`` on a dedicated
  single-thread pool via ``run_in_executor``.  The server is therefore
  only ever touched serially — all of its deadline assembly, retry,
  poison-isolation, and watchdog contracts apply unchanged.  Requests
  arriving *while* a flush runs land in the backlog and join the next
  wave: that is the continuous-batching property.
- **Bit-identity for free.**  TW GEMMs are row-independent, so how
  requests group into waves cannot change any request's output bits;
  continuous admission produces exactly the bits of a sequential drain
  of the same stream on the ``inline`` executor — including under
  injected faults, because retry/bisection runs inside the same
  ``flush`` it always did.
- **Backpressure at the door.**  The server only ever holds one wave,
  so ``max_queue_rows`` and ``shed_policy`` bound the ingress backlog,
  through the same :meth:`ServerConfig.make_room` decision
  ``TWModelServer.submit`` applies: ``reject`` resolves the new
  request's future with :class:`QueueFullError`, ``shed_oldest``
  resolves the oldest backlogged request as ``status="shed"``.
- **Latency honesty.**  Each request's arrival is stamped at
  ``submit_nowait`` time and passed to ``server.submit(...,
  enqueued_at=)``, so reported ``latency_s`` includes ingress backlog
  wait and deadline budgets start ticking at arrival, not admission.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.runtime.server import QueueFullError, ServedRequest, TWModelServer

__all__ = ["IngressClosed", "ServingLoop"]

log = logging.getLogger("repro.ingress")


class IngressClosed(RuntimeError):
    """Submitting to a :class:`ServingLoop` that is closing or closed."""


@dataclass
class _Arrival:
    """One backlogged request: payload + arrival stamp + caller's future."""

    x: np.ndarray
    deadline_s: float | None
    enqueued_at: float
    future: asyncio.Future


class ServingLoop:
    """Continuous-batching async ingress over one :class:`TWModelServer`.

    ::

        loop = model.serve_async(executor="threaded", max_wave_rows=64)
        async with loop:
            served = await loop.submit(x, deadline_s=0.05)

    ``submit`` resolves once the request reaches a *terminal*
    :class:`ServedRequest` (``ok``/``failed``/``shed``/``expired``) —
    the server's graceful-flush guarantee, surfaced per request instead
    of per drain.  ``submit_nowait`` returns the future without
    awaiting, which is what an open-loop load generator wants.

    Parameters
    ----------
    server:
        A configured :class:`TWModelServer` (layers added, ideally
        ``warm()``\\ ed).  The loop never reconfigures it; each admitted
        wave holds at most ``server.config.max_wave_rows`` rows.
    stats_interval_s:
        When > 0, a background task emits a one-line stats summary every
        interval through ``stats_log`` (default: this module's logger).
    owns_server:
        When true, :meth:`close` also closes the server — set by
        :meth:`CompiledTWModel.serve_async`, which builds the server
        itself.
    """

    def __init__(
        self,
        server: TWModelServer,
        *,
        stats_interval_s: float = 0.0,
        stats_log: Callable[[str], None] | None = None,
        owns_server: bool = False,
    ) -> None:
        self.server = server
        self.stats_interval_s = float(stats_interval_s)
        self._stats_log = stats_log if stats_log is not None else log.info
        self._owns_server = owns_server
        self._backlog: deque[_Arrival] = deque()
        self._backlog_rows = 0
        self._arrived = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        #: rid → future for requests admitted to the server but not yet
        #: terminal; persists across flushes because a ``shed_oldest``
        #: victim only surfaces from a *later* flush
        self._waiting: dict[int, asyncio.Future] = {}
        self._unresolved = 0
        self._waves_admitted = 0
        self._admission_task: asyncio.Task | None = None
        self._stats_task: asyncio.Task | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        x: np.ndarray,
        *,
        deadline_s: float | None = None,
        enqueued_at: float | None = None,
    ) -> ServedRequest:
        """Stream one request in; await its terminal :class:`ServedRequest`."""
        return await self.submit_nowait(x, deadline_s=deadline_s, enqueued_at=enqueued_at)

    def submit_nowait(
        self,
        x: np.ndarray,
        *,
        deadline_s: float | None = None,
        enqueued_at: float | None = None,
    ) -> "asyncio.Future[ServedRequest]":
        """Enqueue one request; return its future without awaiting it.

        Must be called from a running event loop (it is not thread-safe —
        cross-thread producers should use
        ``loop.call_soon_threadsafe``).  The arrival timestamp defaults
        to *now* but a front that observed the request earlier (e.g. the
        HTTP server, at socket accept) may pass ``enqueued_at`` — a past
        ``time.perf_counter()`` stamp — so reported latency and deadline
        budgets start at true arrival, not at parse time.

        A request that is not ``rows × K`` raises :class:`ValueError`
        here.  A backlog full to ``max_queue_rows`` answers by the
        server's ``shed_policy``: ``reject`` returns a future already
        holding :class:`QueueFullError`; ``shed_oldest`` resolves the
        oldest backlogged requests as ``status="shed"`` to make room.
        """
        if self._closing or self._closed:
            raise IngressClosed("ServingLoop is closed to new submissions")
        now = time.perf_counter()
        if enqueued_at is None:
            enqueued_at = now
        elif enqueued_at > now:
            raise ValueError("enqueued_at must not be in the future")
        x = self.server.check_request(x)
        self._ensure_started()
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            shed = self.server.config.make_room(
                self._backlog, self._backlog_rows, x.shape[0]
            )
        except QueueFullError as exc:
            fut.set_exception(exc)
            return fut
        for victim in shed:
            self._backlog_rows -= victim.x.shape[0]
            if not victim.future.done():  # not cancelled while backlogged
                self.server.stats.shed += 1
                victim.future.set_result(ServedRequest.unserved(
                    -1, victim.x.shape[0], victim.enqueued_at, "shed", now
                ))
        self._backlog.append(
            _Arrival(x=x, deadline_s=deadline_s, enqueued_at=enqueued_at, future=fut)
        )
        self._backlog_rows += x.shape[0]
        self._unresolved += 1
        self._idle.clear()
        fut.add_done_callback(self._on_resolved)
        self._arrived.set()
        return fut

    def _on_resolved(self, fut: asyncio.Future) -> None:
        self._unresolved -= 1
        if self._unresolved <= 0:
            self._idle.set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the admission loop (idempotent; auto-called by submit)."""
        self._ensure_started()

    def _ensure_started(self) -> None:
        if self._admission_task is not None:
            return
        loop = asyncio.get_running_loop()
        # one thread: flushes must serialise — the server is not
        # thread-safe and ordering is part of the bit-identity contract
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingress"
        )
        self._admission_task = loop.create_task(
            self._admission_loop(), name="repro-ingress-admission"
        )
        if self.stats_interval_s > 0:
            self._stats_task = loop.create_task(
                self._stats_loop(), name="repro-ingress-stats"
            )

    async def drain(self, *, timeout_s: float | None = None) -> bool:
        """Wait until every accepted request has reached a terminal result.

        With ``timeout_s`` the wait is bounded: returns ``True`` once
        idle, ``False`` if requests are still in flight when the budget
        expires (so graceful shutdown can stop waiting and hand the
        stragglers to :meth:`close`, instead of hanging past the
        server's own watchdog).
        """
        if timeout_s is None:
            await self._idle.wait()
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self) -> None:
        """Drain the backlog, stop the loop, release the flush thread.

        Every request accepted before ``close()`` still reaches its
        terminal status (the admission loop finishes the backlog before
        exiting); submissions after are refused with
        :class:`IngressClosed`.  Closes the server too when this loop
        owns it (``serve_async``).  Idempotent.
        """
        if self._closed:
            return
        self._closing = True
        self._arrived.set()  # wake the admission loop so it can exit
        if self._admission_task is not None:
            # a crashed admission loop already routed its error to every
            # outstanding future; close() itself stays quiet about it
            with contextlib.suppress(Exception):
                await self._admission_task
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._closed = True
        self._fail_all(IngressClosed("ServingLoop closed before completion"))
        if self._owns_server:
            self.server.close()

    async def __aenter__(self) -> "ServingLoop":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # admission loop
    # ------------------------------------------------------------------ #
    async def _admission_loop(self) -> None:
        try:
            while True:
                while not self._backlog:
                    if self._closing:
                        return
                    self._arrived.clear()
                    await self._arrived.wait()
                await self._run_wave(self._take_wave())
        except asyncio.CancelledError:
            self._fail_all(IngressClosed("ServingLoop admission cancelled"))
            raise
        except BaseException as exc:  # pragma: no cover - defensive
            log.exception("ingress admission loop crashed")
            self._fail_all(exc)
            raise

    def _take_wave(self) -> list[_Arrival]:
        """Pop up to one wave of requests (≥1; requests never split)."""
        cap = self.server.config.max_wave_rows
        wave = [self._backlog.popleft()]
        rows = wave[0].x.shape[0]
        while self._backlog and rows + self._backlog[0].x.shape[0] <= cap:
            nxt = self._backlog.popleft()
            wave.append(nxt)
            rows += nxt.x.shape[0]
        self._backlog_rows -= rows
        return wave

    async def _run_wave(self, wave: list[_Arrival]) -> None:
        """Admit one wave to the server and flush it off the event loop."""
        for item in wave:
            if item.future.done():  # caller cancelled while backlogged
                continue
            try:
                rid = self.server.submit(
                    item.x,
                    deadline_s=item.deadline_s,
                    enqueued_at=item.enqueued_at,
                )
            except BaseException as exc:  # e.g. an invalid deadline_s
                item.future.set_exception(exc)
                continue
            self._waiting[rid] = item.future
        if not self._waiting:
            return
        served = await asyncio.get_running_loop().run_in_executor(
            self._pool, self.server.flush
        )
        self._waves_admitted += 1
        for req in served:
            fut = self._waiting.pop(req.request_id, None)
            if fut is not None and not fut.done():
                fut.set_result(req)

    def _fail_all(self, exc: BaseException) -> None:
        """Resolve every outstanding future exceptionally (loop teardown)."""
        for item in list(self._backlog):
            if not item.future.done():
                item.future.set_exception(exc)
        self._backlog.clear()
        self._backlog_rows = 0
        for fut in list(self._waiting.values()):
            if not fut.done():
                fut.set_exception(exc)
        self._waiting.clear()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats_record(self) -> dict:
        """Server's :meth:`~TWModelServer.stats_record` + ingress context."""
        rec = self.server.stats_record()
        rec["ingress"] = {
            "backlog_requests": len(self._backlog),
            "backlog_rows": self._backlog_rows,
            "inflight_requests": len(self._waiting),
            "unresolved_requests": self._unresolved,
            "waves_admitted": self._waves_admitted,
            "closed": self._closed,
        }
        return rec

    async def _stats_loop(self) -> None:
        while True:
            await asyncio.sleep(self.stats_interval_s)
            self._emit_stats_line()

    def _emit_stats_line(self) -> None:
        rec = self.stats_record()
        self._stats_log(
            "ingress: backlog=%d inflight=%d served=%d waves=%d "
            "occupancy=%.2f p99=%.1fms busy=%.0f%%"
            % (
                rec["ingress"]["backlog_requests"],
                rec["ingress"]["inflight_requests"],
                rec["requests"],
                rec["waves"]["count"],
                rec["waves"]["occupancy"],
                rec["latency_ms"]["p99"],
                max(rec["device_busy_pct"].values(), default=0.0),
            )
        )
