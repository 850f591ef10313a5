"""Network serving front: asyncio HTTP/1.1 ingress over :class:`ServingLoop`.

This closes ROADMAP item 1's last open thread — a real network boundary
in front of the continuous-batching loop, so the SLO machinery
(deadlines, shedding, retry/poison isolation, stats) is exercisable by
remote clients.  Dependency-free: raw ``asyncio.start_server`` plus the
framing helpers in :mod:`repro.runtime.wire`; no web framework.

Endpoints
---------
``POST /v1/infer``
    Body is a version-1 binary tensor frame
    (``application/x-tw-tensor``) or the JSON fallback
    (``application/json``).  An ``X-Deadline-Ms`` header becomes
    ``submit_nowait(deadline_s=)``.  Terminal statuses map onto HTTP::

        ok       -> 200  (tensor/JSON body mirrors the request encoding)
        expired  -> 504  deadline_expired
        shed     -> 429  overloaded            (+ Retry-After)
        rejected -> 429  queue_full            (+ Retry-After; QueueFullError)
        failed   -> 500  request_failed        (the poison-isolated error)

    Invalid payloads get 400 with a structured JSON error body — a
    traceback never crosses the wire.  Framing past a size cap is
    answered with the status its :class:`~repro.runtime.wire.ProtocolError`
    carries (414 start line, 431 header line or header count, 413 body
    past ``max_body_bytes``), then the connection closes.  A request
    whose headers and body do not arrive within ``_READ_DEADLINE_S`` of
    its start line gets 408 ``request_timeout`` and its connection is
    closed.
``GET /healthz``
    Readiness: 503 while ``server.warm()`` runs, 200 after.
``GET /v1/stats``
    The :meth:`NetServer.stats_record` snapshot as JSON.

Latency honesty over the network: ``enqueued_at`` is stamped when the
loop reads the request (accept for the first request on a connection,
message arrival for keep-alive successors), so reported latency and
deadline budgets start at arrival rather than at admission.  Waves run
on the loop thread, so bytes that land mid-wave wait in the socket
buffer until it ends: that wait is in the client's latency (twbench's
``hop_s``), not in ``queue_wait_s``.

Graceful drain: on SIGTERM/``close()`` the listener stops accepting,
in-flight requests run to their terminal status via
``ServingLoop.drain(timeout_s=)`` (bounded, so shutdown cannot hang
past the server watchdog), a final stats snapshot is flushed (and
written to ``stats_json`` when configured), and only then do sockets
and the owned loop close.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
import time
from typing import Callable

import numpy as np

from repro.runtime import wire
from repro.runtime.ingress import IngressClosed, ServingLoop
from repro.runtime.server import QueueFullError, ServedRequest, write_stats_json

__all__ = ["NetServer"]

log = logging.getLogger("repro.netserve")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: ServedRequest.status → (http status, error code) for non-ok terminals
_STATUS_HTTP = {
    "expired": (504, "deadline_expired"),
    "shed": (429, "overloaded"),
    "failed": (500, "request_failed"),
}

_RETRY_AFTER_S = 1

#: seconds a request's headers and body may take once its start line has
#: arrived; a slower client is answered 408 and its connection closed
#: (idle keep-alive waits before a start line stay unbounded)
_READ_DEADLINE_S = 10.0


class NetServer:
    """Asyncio HTTP/1.1 front door for one :class:`ServingLoop`.

    Three ways to run it::

        net = model.serve_http(port=8080)   # builds loop + NetServer
        net.run()                           # blocking; SIGTERM drains

        async with NetServer(loop, port=0) as net:   # inside a loop
            ...

        with NetServer(loop, port=0) as net:         # own thread
            client = InferClient("127.0.0.1", net.port)

    Parameters
    ----------
    loop:
        The :class:`ServingLoop` to front.  With ``owns_loop=True`` the
        server closes it (and, transitively, a loop-owned
        :class:`TWModelServer`) on shutdown — the ``serve_http`` path.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    drain_timeout_s:
        Budget for the graceful drain on shutdown; stragglers past it
        are failed by ``ServingLoop.close()`` instead of hanging the
        process.
    max_body_bytes:
        Hard cap on request bodies (413 beyond it).
    stats_json:
        Path to write the final stats snapshot to on shutdown.
    """

    def __init__(
        self,
        loop: ServingLoop,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        drain_timeout_s: float = 30.0,
        max_body_bytes: int = 64 * 1024 * 1024,
        stats_json: str | None = None,
        log_fn: Callable[[str], None] | None = None,
        owns_loop: bool = False,
    ) -> None:
        self.loop = loop
        self.host = host
        self._requested_port = int(port)
        self.drain_timeout_s = float(drain_timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self.stats_json = stats_json
        self._log = log_fn if log_fn is not None else log.info
        self._owns_loop = owns_loop
        self._listener: asyncio.base_events.Server | None = None
        self._bound_port: int | None = None
        self._conns: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._ready = False
        self._closing = False
        self._closed = False
        self._requests_seen = 0
        self.final_stats: dict | None = None
        # daemon-thread mode: the running lifecycle's (event loop, stop
        # event) lets ``__exit__`` request the drain from another thread
        self._stop: tuple[asyncio.AbstractEventLoop, asyncio.Event] | None = None
        self._started = threading.Event()
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        return self._bound_port if self._bound_port is not None else self._requested_port

    async def start(self) -> None:
        """Bind the listener, then warm the model off the event loop.

        The socket opens *before* the (potentially slow) ``warm()`` so
        orchestrators can poll ``/healthz`` — it answers 503 until
        ``warm()`` has built every layer's tile operands, then 200.
        """
        if self._listener is not None:
            raise RuntimeError("NetServer already started")
        self.loop.start()
        self._listener = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        if self._listener.sockets:
            self._bound_port = self._listener.sockets[0].getsockname()[1]
        # warm off the event loop, so /healthz answers 503 meanwhile; the
        # loop does not touch the server until a request is admitted
        await asyncio.get_running_loop().run_in_executor(None, self.loop.server.warm)
        self._ready = True

    async def serve_forever(self) -> None:
        if self._listener is None:
            await self.start()
        assert self._listener is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._listener.serve_forever()

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush stats."""
        if self._closed:
            return
        self._closing = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        drained = await self.loop.drain(timeout_s=self.drain_timeout_s)
        if not drained:
            self._log(
                "netserve: drain timed out after %.1fs; failing stragglers"
                % self.drain_timeout_s
            )
        # handlers still marked busy have their terminal result and only
        # need to finish writing it; wait those out briefly, then cut the
        # idle keep-alive connections parked in readline
        for _ in range(500):
            if not self._busy:
                break
            await asyncio.sleep(0.01)
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        self.final_stats = self.stats_record()
        self.final_stats["net"]["drained"] = drained
        if self.stats_json:
            write_stats_json(self.stats_json, self.final_stats)
            self._log("netserve: final stats written to %s" % self.stats_json)
        if self._owns_loop:
            await self.loop.close()
        self._closed = True

    def stats_record(self) -> dict:
        """:meth:`ServingLoop.stats_record` plus this front door's ``net`` section."""
        record = self.loop.stats_record()
        record["net"] = {
            "requests_seen": self._requests_seen,
            "ready": self._ready,
            "host": self.host,
            "port": self.port,
        }
        return record

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def run(self, *, install_signals: bool = True) -> None:
        """Blocking entry point: serve until SIGTERM/SIGINT, then drain."""

        async def main() -> None:
            stop = asyncio.Event()
            if install_signals:
                running = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(NotImplementedError, ValueError):
                        running.add_signal_handler(sig, stop.set)
            await self._serve_until(stop)

        asyncio.run(main())

    async def _serve_until(self, stop: asyncio.Event) -> None:
        """The one lifecycle: start, serve until ``stop`` is set, then drain."""
        self._stop = (asyncio.get_running_loop(), stop)
        try:
            await self.start()
        except BaseException:
            with contextlib.suppress(BaseException):
                await self.close()
            raise
        self._log(
            "netserve: listening on http://%s:%d (POST /v1/infer)"
            % (self.host, self.port)
        )
        self._started.set()
        serving = asyncio.create_task(self.serve_forever())
        await stop.wait()
        self._log("netserve: stop requested; draining")
        await self.close()
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving

    # -- daemon-thread mode (tests, benchmarks) -- #
    def __enter__(self) -> "NetServer":
        """Serve on a daemon thread until ``__exit__`` drains it.

        Returns once the listener is bound **and** the model is warm, so
        ``net.port`` is valid and the first request never eats cold-start.
        """
        if self._thread is not None:
            raise RuntimeError("NetServer thread already running")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-netserve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(120.0):
            raise TimeoutError("NetServer did not start within 120s")
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *exc) -> None:
        thread = self._thread
        if thread is None:
            return
        if self._stop is not None:
            loop, stop = self._stop
            with contextlib.suppress(RuntimeError):  # loop already gone
                loop.call_soon_threadsafe(stop.set)
        thread.join(self.drain_timeout_s + 30.0)
        if thread.is_alive():  # pragma: no cover - defensive
            raise TimeoutError("NetServer thread did not stop")
        self._thread = None
        if self._error is not None:
            raise self._error

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve_until(asyncio.Event()))
        except BaseException as exc:  # surface in the foreground thread
            self._error = exc
        finally:
            self._started.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conns.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        except (asyncio.IncompleteReadError, ConnectionError, BrokenPipeError):
            pass  # peer went away mid-message; nothing to answer
        except Exception:  # pragma: no cover - defensive
            log.exception("netserve: connection handler crashed")
        finally:
            self._conns.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # arrival anchor: the connection's first request is stamped at
        # socket accept (bytes follow the connect immediately); keep-alive
        # successors are stamped when their message arrives — NOT when we
        # started waiting for it, or idle keep-alive time between requests
        # would masquerade as queue wait
        accept_stamp = time.perf_counter()
        first_request = True
        while not self._closing:
            try:
                message = await wire.read_http_message(
                    reader,
                    max_body_bytes=self.max_body_bytes,
                    rest_timeout_s=_READ_DEADLINE_S,
                )
            except asyncio.TimeoutError:
                await self._respond_error(
                    writer, 408, "request_timeout",
                    f"request incomplete {_READ_DEADLINE_S:g}s after its start line",
                    keep_alive=False,
                )
                return
            except wire.ProtocolError as exc:
                await self._respond_error(
                    writer, exc.status, "bad_request", str(exc), keep_alive=False
                )
                return
            if message is None:
                return  # clean keep-alive EOF
            arrived = accept_stamp if first_request else time.perf_counter()
            first_request = False
            start_line, headers, body = message
            keep_alive = headers.get("connection", "").lower() != "close"
            task = asyncio.current_task()
            assert task is not None
            self._busy.add(task)
            try:
                await self._dispatch(
                    writer, start_line, headers, body, arrived, keep_alive
                )
            finally:
                self._busy.discard(task)
            if not keep_alive:
                return

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        start_line: str,
        headers: dict[str, str],
        body: bytes,
        arrived: float,
        keep_alive: bool,
    ) -> None:
        parts = start_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            await self._respond_error(
                writer, 400, "bad_request", f"malformed request line: {start_line!r}",
                keep_alive=False,
            )
            return
        method, target, _version = parts
        target = target.split("?", 1)[0]
        if target == "/healthz":
            await self._handle_healthz(writer, method, keep_alive)
        elif target == "/v1/stats":
            await self._handle_stats(writer, method, keep_alive)
        elif target == "/v1/infer":
            if method != "POST":
                await self._respond_error(
                    writer, 405, "method_not_allowed",
                    "use POST for /v1/infer", keep_alive=keep_alive,
                )
                return
            self._requests_seen += 1
            await self._handle_infer(writer, headers, body, arrived, keep_alive)
        else:
            await self._respond_error(
                writer, 404, "not_found", f"no route for {target}",
                keep_alive=keep_alive,
            )

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    async def _handle_healthz(
        self, writer: asyncio.StreamWriter, method: str, keep_alive: bool
    ) -> None:
        if method not in ("GET", "HEAD"):
            await self._respond_error(
                writer, 405, "method_not_allowed", "use GET for /healthz",
                keep_alive=keep_alive,
            )
            return
        doc = {
            "ready": self._ready and not self._closing,
            "status": "ok" if self._ready and not self._closing else "warming",
            "requests_seen": self._requests_seen,
            "wire_version": wire.VERSION,
        }
        status = 200 if doc["ready"] else 503
        await self._respond(
            writer, status, json.dumps(doc).encode(),
            content_type=wire.CONTENT_TYPE_JSON, keep_alive=keep_alive,
        )

    async def _handle_stats(
        self, writer: asyncio.StreamWriter, method: str, keep_alive: bool
    ) -> None:
        if method != "GET":
            await self._respond_error(
                writer, 405, "method_not_allowed", "use GET for /v1/stats",
                keep_alive=keep_alive,
            )
            return
        await self._respond(
            writer, 200, json.dumps(self.stats_record(), sort_keys=True).encode(),
            content_type=wire.CONTENT_TYPE_JSON, keep_alive=keep_alive,
        )

    async def _handle_infer(
        self,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        body: bytes,
        arrived: float,
        keep_alive: bool,
    ) -> None:
        if not self._ready:
            await self._respond_error(
                writer, 503, "warming", "model is still warming; retry",
                keep_alive=keep_alive, retry_after=True,
            )
            return
        content_type = headers.get("content-type", wire.CONTENT_TYPE_TENSOR)
        content_type = content_type.split(";", 1)[0].strip().lower()
        binary_reply = content_type != wire.CONTENT_TYPE_JSON
        try:
            if binary_reply:
                x = wire.decode_tensor(body)
            else:
                x = wire.decode_json_tensor(body)
            deadline_s = self._parse_deadline(headers)
            x = self.loop.server.check_request(x)
        except ValueError as exc:  # a WireError, or not rows x model K
            code = exc.code if isinstance(exc, wire.WireError) else "shape_mismatch"
            await self._respond_error(
                writer, 400, code, str(exc), keep_alive=keep_alive
            )
            return
        try:
            served = await self.loop.submit_nowait(
                x, deadline_s=deadline_s, enqueued_at=arrived
            )
        except QueueFullError as exc:
            await self._respond_error(
                writer, 429, "queue_full", str(exc),
                keep_alive=keep_alive, retry_after=True, served_status="rejected",
            )
            return
        except IngressClosed as exc:
            await self._respond_error(
                writer, 503, "shutting_down", str(exc), keep_alive=False
            )
            return
        except ValueError as exc:  # admission-time validation (shape, deadline)
            await self._respond_error(
                writer, 400, "invalid_request", str(exc), keep_alive=keep_alive
            )
            return
        await self._respond_served(writer, served, binary_reply, keep_alive)

    @staticmethod
    def _parse_deadline(headers: dict[str, str]) -> float | None:
        raw = headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            deadline_ms = float(raw)
        except ValueError:
            raise wire.WireError(
                "bad_deadline", f"X-Deadline-Ms is not a number: {raw!r}"
            ) from None
        if not np.isfinite(deadline_ms) or deadline_ms < 0:
            raise wire.WireError(
                "bad_deadline", f"X-Deadline-Ms must be finite and >= 0, got {raw!r}"
            )
        return deadline_ms / 1e3

    async def _respond_served(
        self,
        writer: asyncio.StreamWriter,
        served: ServedRequest,
        binary_reply: bool,
        keep_alive: bool,
    ) -> None:
        timing = {
            "X-Request-Id": str(served.request_id),
            "X-Status": served.status,
            "X-Latency-Ms": "%.3f" % (served.latency_s * 1e3),
            "X-Queue-Wait-Ms": "%.3f" % (served.queue_wait_s * 1e3),
            "X-Service-Ms": "%.3f" % (served.service_s * 1e3),
        }
        if served.status == "ok":
            if binary_reply:
                body = wire.encode_tensor(served.output)
                ctype = wire.CONTENT_TYPE_TENSOR
            else:
                out = np.atleast_2d(served.output)
                body = json.dumps(
                    {
                        "status": "ok",
                        "request_id": served.request_id,
                        "dtype": out.dtype.name,
                        "output": out.tolist(),
                    }
                ).encode()
                ctype = wire.CONTENT_TYPE_JSON
            await self._respond(
                writer, 200, body, content_type=ctype,
                keep_alive=keep_alive, extra=timing,
            )
            return
        http_status, code = _STATUS_HTTP.get(served.status, (500, "request_failed"))
        message = str(served.error) if served.error is not None else served.status
        await self._respond_error(
            writer, http_status, code, message, keep_alive=keep_alive,
            retry_after=(http_status == 429), served_status=served.status,
            extra=timing,
        )

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        code: str,
        message: str,
        *,
        keep_alive: bool,
        retry_after: bool = False,
        served_status: str | None = None,
        extra: dict[str, str] | None = None,
    ) -> None:
        body = wire.error_body(served_status or "error", code, message)
        headers = dict(extra or {})
        headers.setdefault("X-Status", served_status or "error")
        if retry_after:
            headers["Retry-After"] = str(_RETRY_AFTER_S)
        await self._respond(
            writer, status, body, content_type=wire.CONTENT_TYPE_JSON,
            keep_alive=keep_alive, extra=headers,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        content_type: str,
        keep_alive: bool,
        extra: dict[str, str] | None = None,
    ) -> None:
        headers = {
            "Content-Type": content_type,
            "X-Wire-Version": str(wire.VERSION),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        if extra:
            headers.update(extra)
        reason = _REASONS.get(status, "Unknown")
        writer.write(wire.format_message(f"HTTP/1.1 {status} {reason}", headers, body))
        await writer.drain()
