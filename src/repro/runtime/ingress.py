"""Async serving ingress: continuous batching over :class:`TWModelServer`.

The server's ``submit``/``flush`` API is lock-step — callers queue a
batch, drain it, and the executor idles until the next drain.  This
module adds the traffic layer (ROADMAP item 1): an asyncio
:class:`ServingLoop` whose background *admission loop* flushes the next
wave from whatever is queued the moment the executor frees up, so a
steady request stream keeps waves full with no offline batching.

Design notes (why this is simple *and* bit-identical):

- **One queue.**  ``submit_nowait`` calls ``server.submit`` at the
  call, so the server's validation (shape, ``K``, deadline, arrival
  stamp) and its ``max_queue_rows``/``shed_policy`` decision apply at
  once: ``reject`` returns a future already holding
  :class:`QueueFullError`, ``shed_oldest`` victims surface from the
  next flush as ``status="shed"`` with their server ids.  Waves come
  out of the server's own shortest-deadline-first order.
- **Waves on the loop thread.**  While requests are waiting, the
  admission loop runs ``server.flush(max_rows=max_wave_rows)`` — one
  wave — on the event-loop thread, so the server's retry, poison and
  watchdog contracts apply unchanged (``threaded`` workers still run the
  GEMMs; ``watchdog_s`` bounds the wait).  A flush thread cost more than
  it hid: an 8-row ``submit``+``flush`` round trip took 0.87–0.95 ms
  through one against 0.50–0.55 ms here (2 vCPU).  Before each wave the
  loop yields behind the socket reads and timers that fell due, so
  ``/healthz``, ``/v1/stats`` and requests that arrived during a wave are
  served before the next one.  So a request arriving mid-wave is read
  after that wave, and ``drain(timeout_s)`` is bounded at wave granularity.
- **Bit-identity for free.**  TW GEMMs are row-independent, so how
  requests group into waves cannot change any request's output bits;
  continuous admission produces exactly the bits of a sequential drain
  of the same stream on the ``inline`` executor — including under
  injected faults, because retry/bisection runs inside the same
  ``flush`` it always did.
- **Latency honesty.**  Each request's arrival is stamped at
  ``submit_nowait`` time (or the caller's earlier ``enqueued_at``), so
  reported ``latency_s`` includes queue wait and deadline budgets
  start ticking at arrival.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
from typing import Callable

import numpy as np

from repro.runtime.server import QueueFullError, ServedRequest, TWModelServer

__all__ = ["IngressClosed", "ServingLoop"]

log = logging.getLogger("repro.ingress")


class IngressClosed(RuntimeError):
    """Submitting to a :class:`ServingLoop` that is closing or closed."""


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
        self._arrived = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        #: rid → future for requests queued on the server but not yet
        #: terminal; persists across flushes because a request may wait
        #: several waves (and a ``shed_oldest`` victim surfaces from the
        #: next flush)
        self._waiting: dict[int, asyncio.Future] = {}
        self._waves_admitted = 0
        self._admission_task: asyncio.Task | None = None
        self._stats_task: asyncio.Task | None = None
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

        The server validates and queues the request here: a request it
        refuses (not ``rows × K``, a bad ``deadline_s`` or
        ``enqueued_at``) raises :class:`ValueError`; a queue full to
        ``max_queue_rows`` answers by the server's ``shed_policy`` —
        ``reject`` returns a future already holding
        :class:`QueueFullError`, ``shed_oldest`` resolves the oldest
        queued requests as ``status="shed"`` to make room.  Cancelling
        the future does not withdraw the request: it still runs and its
        result is dropped.
        """
        if self._closing or self._closed:
            raise IngressClosed("ServingLoop is closed to new submissions")
        self._ensure_started()
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            rid = self.server.submit(x, deadline_s=deadline_s, enqueued_at=enqueued_at)
        except QueueFullError as exc:
            fut.set_exception(exc)
            return fut
        self._waiting[rid] = fut
        self._idle.clear()
        self._arrived.set()
        return fut

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
        server's own watchdog).  A wave that has started finishes first.
        """
        if timeout_s is None:
            await self._idle.wait()
            return True
        idle = asyncio.ensure_future(self._idle.wait())
        # asyncio.wait's timer wakes this task before the next wave starts
        # (wait_for's cancel-and-wait would let more waves start first)
        done, _ = await asyncio.wait({idle}, timeout=timeout_s)
        idle.cancel()
        return bool(done)

    async def close(self) -> None:
        """Drain the queue, then stop the admission and stats tasks.

        Every request accepted before ``close()`` still reaches its
        terminal status (the admission loop finishes the queue before
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
        max_rows = self.server.config.max_wave_rows
        loop = asyncio.get_running_loop()
        try:
            while True:
                while not self._waiting:
                    if self._closing:
                        return
                    self._arrived.clear()
                    await self._arrived.wait()
                # a zero-delay timer, not sleep(0), resumes this task behind
                # the socket reads and timers that fell due during the last wave
                due = loop.create_future()
                loop.call_later(0, lambda: due.done() or due.set_result(None))
                await due
                served = self.server.flush(max_rows=max_rows)
                if not served:  # another caller flushed what was waiting
                    self._fail_all(RuntimeError(
                        "queued requests were flushed outside this ServingLoop"
                    ))
                    continue
                self._waves_admitted += 1
                for req in served:
                    fut = self._waiting.pop(req.request_id, None)
                    if fut is not None and not fut.done():  # not cancelled
                        fut.set_result(req)
                if not self._waiting:
                    self._idle.set()
        except asyncio.CancelledError:
            self._fail_all(IngressClosed("ServingLoop admission cancelled"))
            raise
        except BaseException as exc:  # pragma: no cover - defensive
            log.exception("ingress admission loop crashed")
            self._fail_all(exc)
            raise

    def _fail_all(self, exc: BaseException) -> None:
        """Resolve every outstanding future exceptionally (loop teardown)."""
        for fut in self._waiting.values():
            if not fut.done():
                fut.set_exception(exc)
        self._waiting.clear()
        self._idle.set()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats_record(self) -> dict:
        """Server's :meth:`~TWModelServer.stats_record` + ingress context."""
        rec = self.server.stats_record()
        rec["ingress"] = {
            "inflight_requests": len(self._waiting),
            "unresolved_requests": sum(not f.done() for f in self._waiting.values()),
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
            "ingress: queued=%d inflight=%d served=%d waves=%d "
            "occupancy=%.2f p99=%.1fms busy=%.0f%%"
            % (
                rec["queue"]["depth_requests"],
                rec["ingress"]["inflight_requests"],
                rec["requests"],
                rec["waves"]["count"],
                rec["waves"]["occupancy"],
                rec["latency_ms"]["p99"],
                max(rec["device_busy_pct"].values(), default=0.0),
            )
        )
