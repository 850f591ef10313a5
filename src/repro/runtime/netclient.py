"""Clients for the network serving front (:mod:`repro.runtime.netserve`).

Stdlib-only, mirroring the server's dependency posture:

- :class:`AsyncInferClient` — one keep-alive connection on asyncio
  streams.
- :class:`InferClient` — a blocking facade over it on a private event
  loop; what a test, a script, or one worker thread uses.
- :class:`HttpLoadTransport` — a pool of async clients with a
  ``submit_nowait`` that keeps up to ``connections`` requests on the
  wire; twbench's ``http_small`` workload sends its load through it.

Every call resolves to a :class:`NetResult`.  Its ``latency_s`` is the
*client-observed* wall time (send → response read), so network overhead
is part of any percentile computed from it; the server's own
arrival-anchored timings ride along as ``server_latency_s`` /
``queue_wait_s`` / ``service_s`` from the ``X-*-Ms`` response headers.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.runtime import wire

__all__ = ["AsyncInferClient", "HttpLoadTransport", "InferClient", "NetResult"]

#: fallback status when a response carries no X-Status header
_HTTP_STATUS_NAMES = {
    200: "ok",
    400: "invalid",
    429: "rejected",
    500: "failed",
    503: "unavailable",
    504: "expired",
}


@dataclass
class NetResult:
    """One ``/v1/infer`` round trip, terminal either way."""

    status: str
    http_status: int
    rows: int
    output: np.ndarray | None = None
    request_id: int | None = None
    #: client-observed wall time, network included
    latency_s: float = 0.0
    #: the server's arrival-anchored latency (X-Latency-Ms), if reported
    server_latency_s: float = 0.0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    error: dict | None = None
    retry_after_s: float | None = None
    headers: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _header_ms(headers: Mapping[str, str], name: str) -> float:
    raw = headers.get(name)
    if raw is None:
        return 0.0
    try:
        return float(raw) / 1e3
    except ValueError:
        return 0.0


def parse_infer_response(
    http_status: int,
    headers: Mapping[str, str],
    body: bytes,
    *,
    rows: int,
    client_latency_s: float,
) -> NetResult:
    """Turn one HTTP response (lower-cased header names) into a NetResult."""
    status = headers.get("x-status") or _HTTP_STATUS_NAMES.get(http_status, "error")
    output = None
    error = None
    request_id = None
    if http_status == 200:
        ctype = headers.get("content-type", "").split(";", 1)[0].strip().lower()
        if ctype == wire.CONTENT_TYPE_JSON:
            doc = json.loads(body)
            output = np.asarray(doc["output"], dtype=doc.get("dtype", "float32"))
            request_id = doc.get("request_id")
        else:
            output = wire.decode_tensor(body)
    else:
        try:
            doc = json.loads(body)
            error = doc.get("error")
        except (UnicodeDecodeError, json.JSONDecodeError):
            error = {"code": "unparseable_body", "message": body[:200].decode("latin-1")}
    rid_raw = headers.get("x-request-id")
    if rid_raw is not None:
        try:
            request_id = int(rid_raw)
        except ValueError:
            pass
    retry_raw = headers.get("retry-after")
    retry_after_s = None
    if retry_raw is not None:
        try:
            retry_after_s = float(retry_raw)
        except ValueError:
            pass
    return NetResult(
        status=status,
        http_status=http_status,
        rows=rows,
        output=output,
        request_id=request_id,
        latency_s=client_latency_s,
        server_latency_s=_header_ms(headers, "x-latency-ms"),
        queue_wait_s=_header_ms(headers, "x-queue-wait-ms"),
        service_s=_header_ms(headers, "x-service-ms"),
        error=error,
        retry_after_s=retry_after_s,
        headers=dict(headers),
    )


# ---------------------------------------------------------------------- #
# asyncio client
# ---------------------------------------------------------------------- #
class AsyncInferClient:
    """One keep-alive connection on asyncio streams; one request at a time.

    The load transport below pools these — a single instance must not be
    shared by concurrent tasks (HTTP/1.1 has no multiplexing).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 60.0,
        max_body_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.max_body_bytes = int(max_body_bytes)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_connected(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        return await asyncio.wait_for(
            self._request(method, path, body, headers), self.timeout_s
        )

    async def _request(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None,
    ) -> tuple[int, dict[str, str], bytes]:
        all_headers = {"Host": f"{self.host}:{self.port}"}
        all_headers.update(headers or {})
        message = wire.format_message(f"{method} {path} HTTP/1.1", all_headers, body)
        for attempt in (0, 1):
            await self._ensure_connected()
            assert self._reader is not None and self._writer is not None
            try:
                self._writer.write(message)
                await self._writer.drain()
                response = await wire.read_http_message(
                    self._reader, max_body_bytes=self.max_body_bytes
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                response = None
            if response is None:  # stale keep-alive socket; reconnect once
                await self.close()
                if attempt:
                    raise ConnectionError(
                        f"server at {self.host}:{self.port} closed the connection"
                    )
                continue
            start_line, resp_headers, payload = response
            parts = start_line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/1"):
                await self.close()
                raise wire.ProtocolError(f"malformed status line: {start_line!r}")
            if resp_headers.get("connection", "").lower() == "close":
                await self.close()
            return int(parts[1]), resp_headers, payload
        raise AssertionError("unreachable")

    async def infer(
        self,
        x: np.ndarray,
        *,
        deadline_ms: float | None = None,
        binary: bool = True,
    ) -> NetResult:
        arr = np.atleast_2d(np.asarray(x))
        if binary:
            body = wire.encode_tensor(arr)
            headers = {"Content-Type": wire.CONTENT_TYPE_TENSOR}
        else:
            body = wire.encode_json_tensor(arr)
            headers = {"Content-Type": wire.CONTENT_TYPE_JSON}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = "%.3f" % float(deadline_ms)
        t0 = time.perf_counter()
        status, resp_headers, payload = await self.request(
            "POST", "/v1/infer", body, headers
        )
        return parse_infer_response(
            status, resp_headers, payload, rows=int(arr.shape[0]),
            client_latency_s=time.perf_counter() - t0,
        )

    async def get_json(self, path: str) -> tuple[int, dict]:
        status, _headers, body = await self.request("GET", path)
        return status, json.loads(body)

    async def stats(self) -> dict:
        """The server's ``/v1/stats`` snapshot."""
        status, doc = await self.get_json("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats returned HTTP {status}")
        return doc

    async def close(self) -> None:
        writer = self._writer
        self._reader = self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "AsyncInferClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


# ---------------------------------------------------------------------- #
# blocking client
# ---------------------------------------------------------------------- #
class InferClient:
    """Blocking facade over :class:`AsyncInferClient`.

    Runs the async client on a private event loop, so both clients frame
    HTTP with the same :mod:`~repro.runtime.wire` codec as the server.
    One instance = one connection = one request at a time; concurrent
    callers each hold their own client (one per thread).  Call it from
    plain (non-async) code: a thread that is already running an event
    loop cannot block on another one.
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 60.0) -> None:
        self._client = AsyncInferClient(host, port, timeout_s=timeout_s)
        self._loop: asyncio.AbstractEventLoop | None = None

    def _run(self, coro):
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        try:
            return self._loop.run_until_complete(coro)
        except BaseException:
            self.close()  # a failed round trip leaves no connection to reuse
            raise

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round trip; returns (status, lower-cased headers, body)."""
        return self._run(self._client.request(method, path, body, headers))

    def infer(
        self,
        x: np.ndarray,
        *,
        deadline_ms: float | None = None,
        binary: bool = True,
    ) -> NetResult:
        return self._run(
            self._client.infer(x, deadline_ms=deadline_ms, binary=binary)
        )

    def healthz(self) -> tuple[int, dict]:
        return self._run(self._client.get_json("/healthz"))

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Poll ``/healthz`` until the server reports ready."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, _doc = self.healthz()
                if status == 200:
                    return
            except (OSError, asyncio.TimeoutError):
                pass  # not listening yet
            time.sleep(0.05)
        raise TimeoutError(
            f"server at {self._client.host}:{self._client.port} not ready "
            f"within {timeout_s:.1f}s"
        )

    def close(self) -> None:
        """Close the connection and the private loop (a later call reopens)."""
        if self._loop is not None:
            self._loop.run_until_complete(self._client.close())
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "InferClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# pooled load transport
# ---------------------------------------------------------------------- #
class HttpLoadTransport:
    """A pool of ``connections`` keep-alive :class:`AsyncInferClient`\\ s.

    Each ``submit_nowait`` checks one client out for the round trip, so
    up to ``connections`` requests are on the wire at once and the rest
    queue client-side — the same back-pressure shape a real remote
    caller population has.

    ::

        async with HttpLoadTransport(host, port, connections=4) as transport:
            results = await asyncio.gather(*map(transport.submit_nowait, xs))
    """

    def __init__(self, host: str, port: int, *, connections: int = 16) -> None:
        if connections < 1:
            raise ValueError("connections must be positive")
        self.host = host
        self.port = int(port)
        self.connections = int(connections)
        self._pool: asyncio.Queue[AsyncInferClient] | None = None
        self._clients: list[AsyncInferClient] = []

    def submit_nowait(self, x: np.ndarray) -> "asyncio.Task[NetResult]":
        """Fire one request; the returned task resolves to a NetResult."""
        if self._pool is None:
            raise RuntimeError("HttpLoadTransport not started (use 'async with')")
        return asyncio.get_running_loop().create_task(self._one(x))

    async def _one(self, x: np.ndarray) -> NetResult:
        assert self._pool is not None
        client = await self._pool.get()
        try:
            return await client.infer(x)
        finally:
            self._pool.put_nowait(client)

    async def __aenter__(self) -> "HttpLoadTransport":
        self._pool = asyncio.Queue()
        for _ in range(self.connections):
            client = AsyncInferClient(self.host, self.port)
            self._clients.append(client)
            self._pool.put_nowait(client)
        return self

    async def __aexit__(self, *exc) -> None:
        for client in self._clients:
            await client.close()
        self._clients.clear()
        self._pool = None
