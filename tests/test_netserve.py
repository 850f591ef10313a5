"""Network serving front: wire protocol, HTTP server and clients (ISSUE 10).

The core property mirrors the ingress suite one level further out:
responses served over real sockets are bit-identical (float64 binary
wire format) to the in-process ``serve_async`` path on the same
requests — including under injected faults, where every request must
still get a *terminal* HTTP response (200/429/500/504), never a hang or
a traceback over the wire.  Plus the protocol satellites: strict
request validation → 400 with a structured JSON error body, deadline
header → 504, backpressure → 429 with ``Retry-After``, graceful drain
with a final stats flush.

The servers here run on a background daemon thread (``NetServer`` as a
context manager) against ``127.0.0.1`` ephemeral ports; clients are the
stdlib-only ones from :mod:`repro.runtime.netclient`.
"""

import asyncio
import contextlib
import http.client
import json
import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.runtime import (
    InferClient,
    NetServer,
    ServerConfig,
    ServingLoop,
    TWModelServer,
)
from repro.runtime import wire
from repro.runtime.netclient import (
    AsyncInferClient,
    HttpLoadTransport,
    _split_http_url,
)

HTTP_TERMINAL = {200, 429, 500, 504}


def _pruned_layer(rng, k, n, sparsity=0.5, g=8):
    """One TW-pruned layer, compacted; the server plans it on first use."""
    dense = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    return TiledTWMatrix.from_masks(dense, g, step.col_keeps[0], step.row_masks[0])


def _layers(seed, n_layers=2, k=24, g=8):
    rng = np.random.default_rng(seed)
    return [_pruned_layer(rng, k, k, g=g) for _ in range(n_layers)]


def _server(layers, **cfg_kw):
    cfg_kw.setdefault("max_wave_rows", 4)  # several waves per request stream
    server = TWModelServer(ServerConfig(**cfg_kw))
    for tw in layers:
        server.add_layer(tw)
    return server


def _requests(seed, n=6, rows=2, k=24):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, k)) for _ in range(n)]


def _oracle_outputs(layers, reqs):
    """Fault-free sequential inline drain: the bit-identity reference."""
    server = _server(layers)
    return [server.serve(x).output for x in reqs]


@contextlib.contextmanager
def _serving(server, **net_kw):
    """A NetServer over ``server`` on a daemon thread, ready to accept."""
    loop = ServingLoop(server)
    net_kw.setdefault("drain_timeout_s", 10.0)
    net = NetServer(loop, port=0, owns_loop=True, **net_kw)
    with net:
        yield net


def _client(net):
    return InferClient("127.0.0.1", net.port)


def _flagging_flush(server):
    """Wrap ``server.flush`` to put one item on the returned queue per call.

    Each item is put as its flush starts, so a test can act mid-wave.
    """
    starts = queue.SimpleQueue()
    flush = server.flush

    def flagged(**kw):
        starts.put(None)
        return flush(**kw)

    server.flush = flagged
    return starts


def _post_infer(conn, x):
    conn.request(
        "POST", "/v1/infer", wire.encode_tensor(x),
        {"Content-Type": wire.CONTENT_TYPE_TENSOR},
    )


class TestWavesOnTheLoopThread:
    """Waves hold the event-loop thread; the loop must still serve between them."""

    def test_loop_answers_between_waves(self):
        # a gate request's wave holds the loop until 8 one-wave requests
        # sit in the server's sockets, so all 8 queue together; a /healthz
        # sent once the first of their waves starts must be answered
        # between waves, before the last infer reply (a loop that flushed
        # the whole queue without yielding would answer it after)
        layers = _layers(80)
        gate, *reqs = _requests(81, n=9)
        server = _server(
            layers, faults="latency:rate=1.0:duration=0.05", max_wave_rows=2
        )
        release = threading.Event()
        flush = server.flush

        def gated(**kw):
            release.wait(10.0)
            return flush(**kw)

        server.flush = gated
        starts = _flagging_flush(server)
        with server, _serving(server) as net:
            def connect():
                return http.client.HTTPConnection("127.0.0.1", net.port, timeout=30)

            conns = [connect() for _ in range(9)]
            health = connect()
            health.connect()  # accepted while the loop is idle
            try:
                _post_infer(conns[0], gate)
                starts.get(timeout=10.0)
                for conn, x in zip(conns[1:], reqs):
                    _post_infer(conn, x)
                time.sleep(0.2)  # the kernel has every byte; the loop is held
                release.set()
                replies = []

                def reply(conn):
                    resp = conn.getresponse()
                    resp.read()
                    replies.append((time.perf_counter(), resp.status))

                readers = [threading.Thread(target=reply, args=(c,)) for c in conns]
                for t in readers:
                    t.start()
                starts.get(timeout=10.0)  # the first queued wave runs
                health.request("GET", "/healthz")
                resp = health.getresponse()
                resp.read()
                healthz_at, healthz_status = time.perf_counter(), resp.status
                for t in readers:
                    t.join(30.0)
            finally:
                for conn in conns + [health]:
                    conn.close()
        assert healthz_status == 200
        assert [status for _, status in replies] == [200] * 9
        assert healthz_at < max(at for at, _ in replies)

    def test_client_disconnecting_mid_wave(self):
        # the client closes its socket while its request's wave runs: the
        # request still reaches a terminal status, nothing stays in flight
        # or busy, and the next connection is served bit-identically
        layers = _layers(82)
        reqs = _requests(83, n=2)
        want = _oracle_outputs(layers, reqs)
        server = _server(layers, faults="latency:rate=1.0:duration=0.05")
        starts = _flagging_flush(server)
        with server, _serving(server) as net:
            sock = socket.create_connection(("127.0.0.1", net.port), timeout=5.0)
            sock.sendall(wire.format_message(
                "POST /v1/infer HTTP/1.1",
                {"Host": "127.0.0.1", "Content-Type": wire.CONTENT_TYPE_TENSOR},
                wire.encode_tensor(reqs[0]),
            ))
            starts.get(timeout=10.0)
            sock.close()
            c = _client(net)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = c.stats()
                if (stats["requests"] == 1
                        and stats["ingress"]["inflight_requests"] == 0
                        and not net._busy):
                    break
                time.sleep(0.01)
            assert stats["requests"] == 1
            assert stats["ingress"]["inflight_requests"] == 0
            assert stats["ingress"]["unresolved_requests"] == 0
            assert not net._busy
            r = c.infer(reqs[1])
            assert r.status == "ok"
            np.testing.assert_array_equal(r.output, want[1])
            c.close()


class TestWireCodec:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_binary_round_trip_bit_exact(self, dtype):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 7)).astype(dtype)
        back = wire.decode_tensor(wire.encode_tensor(x))
        assert back.dtype == x.dtype
        np.testing.assert_array_equal(back, x)

    def test_json_round_trip(self):
        x = np.random.default_rng(1).standard_normal((3, 4))
        back = wire.decode_json_tensor(wire.encode_json_tensor(x))
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x)

    @pytest.mark.parametrize("body,code", [
        (b"short", "bad_payload"),
        (b"XXX" + bytes([1]) + b"<f8".ljust(8, b"\0") + struct.pack("<II", 1, 1) + b"\0" * 8,
         "bad_magic"),
        (b"TWT" + bytes([9]) + b"<f8".ljust(8, b"\0") + struct.pack("<II", 1, 1) + b"\0" * 8,
         "unsupported_version"),
        (b"TWT" + bytes([1]) + b"<i8".ljust(8, b"\0") + struct.pack("<II", 1, 1) + b"\0" * 8,
         "bad_dtype"),
        (b"TWT" + bytes([1]) + b"@@@".ljust(8, b"\0") + struct.pack("<II", 1, 1) + b"\0" * 8,
         "bad_dtype"),
        (b"TWT" + bytes([1]) + b"<f8".ljust(8, b"\0") + struct.pack("<II", 0, 4),
         "bad_shape"),
        (b"TWT" + bytes([1]) + b"<f8".ljust(8, b"\0") + struct.pack("<II", 2, 4) + b"\0" * 8,
         "length_mismatch"),
    ])
    def test_strict_binary_validation(self, body, code):
        with pytest.raises(wire.WireError) as err:
            wire.decode_tensor(body)
        assert err.value.code == code

    @pytest.mark.parametrize("body,code", [
        (b"not json{", "bad_json"),
        (b'{"y": [[1.0]]}', "bad_json"),
        (b'{"x": [["a"]]}', "bad_payload"),
        (b'{"x": [[1.0]], "dtype": "int32"}', "bad_dtype"),
        (b'{"x": []}', "bad_shape"),
    ])
    def test_strict_json_validation(self, body, code):
        with pytest.raises(wire.WireError) as err:
            wire.decode_json_tensor(body)
        assert err.value.code == code

    def test_integer_payloads_refused_on_encode(self):
        with pytest.raises(wire.WireError):
            wire.encode_tensor(np.ones((2, 2), dtype=np.int8))

    def test_url_split(self):
        assert _split_http_url("http://127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _split_http_url("127.0.0.1:9999") == ("127.0.0.1", 9999)
        with pytest.raises(ValueError):
            _split_http_url("https://127.0.0.1:1")


    def test_read_deadline_bounds_only_the_rest_of_a_message(self):
        async def read(chunks, feed_eof):
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            if feed_eof:
                reader.feed_eof()
            # the outer bound turns a missing deadline into a failure
            return await asyncio.wait_for(
                wire.read_http_message(reader, max_body_bytes=1024, rest_timeout_s=0.05),
                2.0,
            )

        # a start line and part of the body, then silence: TimeoutError
        partial = b"POST /v1/infer HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc"
        t0 = time.perf_counter()
        with pytest.raises(asyncio.TimeoutError):
            asyncio.run(read([partial], feed_eof=False))
        assert time.perf_counter() - t0 < 1.0  # the 0.05 s deadline, not the bound
        # a whole message is returned as before
        start, headers, body = asyncio.run(read([partial, b"defgh"], feed_eof=False))
        assert (start, headers["content-length"], body) == (
            "POST /v1/infer HTTP/1.1", "8", b"abcdefgh",
        )
        # a clean EOF before any start line is an idle close, not a timeout
        assert asyncio.run(read([], feed_eof=True)) is None


def _http_exchange(sock, request):
    """Send one raw HTTP request on ``sock``; return ``(head, body)`` of the reply."""
    sock.sendall(request)
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(4096)
        assert chunk, "server closed before answering"
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "server closed mid-body"
        body += chunk
    return head, body


class TestEndpoints:
    def test_healthz_stats_and_routing(self):
        layers = _layers(20)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            status, doc = c.healthz()
            assert status == 200 and doc["ready"] is True
            assert doc["wire_version"] == wire.VERSION

            c.infer(_requests(21, n=1)[0])
            stats = c.stats()
            assert stats["requests"] == 1
            assert stats["net"]["requests_seen"] == 1
            assert stats["ingress"]["closed"] is False

            status, headers, body = c.request("GET", "/nope")
            assert status == 404
            assert json.loads(body)["error"]["code"] == "not_found"
            status, _h, body = c.request("GET", "/v1/infer")
            assert status == 405
            assert json.loads(body)["error"]["code"] == "method_not_allowed"
            c.close()

    @pytest.mark.parametrize("binary", [True, False])
    def test_payload_encodings_bit_identical(self, binary):
        # float64 survives both encodings exactly: the binary frame
        # carries raw bytes, the JSON fallback round-trips via repr
        layers = _layers(22)
        reqs = _requests(23, n=4)
        want = _oracle_outputs(layers, reqs)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            for x, ref in zip(reqs, want):
                r = c.infer(x, binary=binary)
                assert r.status == "ok" and r.http_status == 200
                assert r.output.dtype == np.float64
                np.testing.assert_array_equal(r.output, ref)
                assert r.request_id is not None
                assert r.server_latency_s >= r.service_s >= 0.0
            c.close()

    def test_response_mirrors_request_encoding(self):
        layers = _layers(24)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            x = _requests(25, n=1)[0]
            _st, headers, _body = c.request(
                "POST", "/v1/infer", wire.encode_tensor(x),
                {"Content-Type": wire.CONTENT_TYPE_TENSOR},
            )
            assert headers["content-type"] == wire.CONTENT_TYPE_TENSOR
            assert headers["x-wire-version"] == str(wire.VERSION)
            _st, headers, body = c.request(
                "POST", "/v1/infer", wire.encode_json_tensor(x),
                {"Content-Type": wire.CONTENT_TYPE_JSON},
            )
            assert headers["content-type"] == wire.CONTENT_TYPE_JSON
            assert json.loads(body)["status"] == "ok"
            c.close()

    def test_keep_alive_idle_time_is_not_queue_wait(self):
        # regression: the arrival anchor for keep-alive successors is the
        # request's own arrival — idle time between requests on a pooled
        # connection must not inflate reported latency
        layers = _layers(26)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            x = _requests(27, n=1)[0]
            for _ in range(3):
                time.sleep(0.1)  # idle keep-alive gap
                r = c.infer(x)
                assert r.status == "ok"
                assert r.server_latency_s < 0.05
            c.close()


class TestValidationOverHttp:
    def test_bad_payloads_get_structured_400(self):
        layers = _layers(30)
        server = _server(layers)
        bad_frame = b"TWT" + bytes([9]) + b"<f8".ljust(8, b"\0") + struct.pack("<II", 1, 24) + b"\0" * 192
        cases = [
            (b"garbage", wire.CONTENT_TYPE_TENSOR, "bad_payload"),
            (bad_frame, wire.CONTENT_TYPE_TENSOR, "unsupported_version"),
            (b"{broken", wire.CONTENT_TYPE_JSON, "bad_json"),
            (wire.encode_tensor(np.zeros((2, 25))), wire.CONTENT_TYPE_TENSOR,
             "shape_mismatch"),
        ]
        with server, _serving(server) as net:
            c = _client(net)
            for body, ctype, code in cases:
                status, headers, payload = c.request(
                    "POST", "/v1/infer", body, {"Content-Type": ctype}
                )
                assert status == 400, (code, payload)
                doc = json.loads(payload)  # structured, never a traceback
                assert doc["error"]["code"] == code
                assert "Traceback" not in doc["error"]["message"]
            # server still healthy after a pile of rejects
            r = c.infer(_requests(31, n=1)[0])
            assert r.status == "ok"
            c.close()

    def test_bad_deadline_header_is_400(self):
        layers = _layers(32)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            x = wire.encode_tensor(_requests(33, n=1)[0])
            for bad in ("abc", "-5", "inf"):
                status, _h, payload = c.request(
                    "POST", "/v1/infer", x,
                    {"Content-Type": wire.CONTENT_TYPE_TENSOR, "X-Deadline-Ms": bad},
                )
                assert status == 400
                assert json.loads(payload)["error"]["code"] == "bad_deadline"
            c.close()

    def test_oversized_body_is_refused(self):
        layers = _layers(34)
        server = _server(layers)
        with server, _serving(server, max_body_bytes=1024) as net:
            c = _client(net)
            status, _h, payload = c.request(
                "POST", "/v1/infer", b"\0" * 2048,
                {"Content-Type": wire.CONTENT_TYPE_TENSOR},
            )
            assert status == 413
            assert json.loads(payload)["error"]["code"] == "bad_request"
            c.close()

    def test_stalled_request_body_gets_408_and_close(self, monkeypatch):
        # headers promise 64 body bytes, 10 arrive, then the client stalls:
        # past the read deadline the server answers 408 and hangs up
        from repro.runtime import netserve

        monkeypatch.setattr(netserve, "_READ_DEADLINE_S", 0.2)
        layers = _layers(35)
        server = _server(layers)
        with server, _serving(server) as net:
            # the timeout turns a server that never answers into a failure
            slow = socket.create_connection(("127.0.0.1", net.port), timeout=2.0)
            try:
                t0 = time.perf_counter()
                slow.sendall(
                    b"POST /v1/infer HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Type: application/x-tw-tensor\r\n"
                    b"Content-Length: 64\r\n\r\n" + b"\0" * 10
                )
                # another client is served while the first one stalls
                c = _client(net)
                assert c.infer(_requests(36, n=1)[0]).status == "ok"
                c.close()
                reply = b""
                while chunk := slow.recv(4096):  # b"" once the server closes
                    reply += chunk
                elapsed = time.perf_counter() - t0
            finally:
                slow.close()
        assert elapsed < 2.0
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 Request Timeout"), head
        assert b"connection: close" in head.lower()
        assert json.loads(body)["error"]["code"] == "request_timeout"


    def test_stalled_headers_get_408_and_close(self, monkeypatch):
        # a start line and half a header section, then the client stalls
        from repro.runtime import netserve

        monkeypatch.setattr(netserve, "_READ_DEADLINE_S", 0.2)
        layers = _layers(37)
        server = _server(layers)
        with server, _serving(server) as net:
            slow = socket.create_connection(("127.0.0.1", net.port), timeout=2.0)
            try:
                t0 = time.perf_counter()
                slow.sendall(b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n")
                reply = b""
                while chunk := slow.recv(4096):  # b"" once the server closes
                    reply += chunk
                elapsed = time.perf_counter() - t0
            finally:
                slow.close()
        assert elapsed < 2.0
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 Request Timeout"), head
        assert json.loads(body)["error"]["code"] == "request_timeout"

    def test_idle_keep_alive_outlives_the_read_deadline(self, monkeypatch):
        # the deadline starts at a start line: an idle pooled connection
        # waiting for its next request is not timed out
        from repro.runtime import netserve

        monkeypatch.setattr(netserve, "_READ_DEADLINE_S", 0.2)
        layers = _layers(38)
        server = _server(layers)
        x = _requests(39, n=1)[0]
        (want,) = _oracle_outputs(layers, [x])
        frame = wire.encode_tensor(x)
        request = (
            b"POST /v1/infer HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: " + wire.CONTENT_TYPE_TENSOR.encode() + b"\r\n"
            b"Content-Length: " + str(len(frame)).encode() + b"\r\n\r\n" + frame
        )
        with server, _serving(server) as net:
            sock = socket.create_connection(("127.0.0.1", net.port), timeout=2.0)
            try:
                for _ in range(2):
                    head, body = _http_exchange(sock, request)
                    assert head.startswith(b"HTTP/1.1 200"), head
                    np.testing.assert_array_equal(wire.decode_tensor(body), want)
                    time.sleep(0.5)  # idle for 2.5 read deadlines
            finally:
                sock.close()


class TestSloOverHttp:
    def test_deadline_header_expires_to_504(self):
        layers = _layers(40)
        server = _server(layers)
        with server, _serving(server) as net:
            c = _client(net)
            r = c.infer(_requests(41, n=1)[0], deadline_ms=0.0)
            assert r.http_status == 504
            assert r.status == "expired"
            assert r.error["code"] == "deadline_expired"
            assert server.stats.expired == 1
            c.close()

    def test_backpressure_is_429_with_retry_after(self):
        # queue bound of 1 row can never admit a 2-row request: the
        # QueueFullError surfaces deterministically as 429 + Retry-After
        layers = _layers(42)
        server = _server(layers, max_queue_rows=1, shed_policy="reject")
        with server, _serving(server) as net:
            c = _client(net)
            r = c.infer(_requests(43, n=1, rows=2)[0])
            assert r.http_status == 429
            assert r.status == "rejected"
            assert r.error["code"] == "queue_full"
            assert r.retry_after_s is not None and r.retry_after_s > 0
            c.close()

    def test_backlog_bound_is_429_queue_full(self):
        # 16 connections send 8-row requests while every layer of every
        # wave sleeps 20 ms: the queue holds 16 rows, the rest get 429
        layers = _layers(46)
        reqs = _requests(47, n=32, rows=8)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers, max_wave_rows=16, max_queue_rows=16,
            faults="latency:rate=1.0:duration=0.02",
        )
        with server, _serving(server) as net:
            async def go():
                async with HttpLoadTransport(
                    "127.0.0.1", net.port, connections=16
                ) as transport:
                    return await asyncio.gather(
                        *(transport.submit_nowait(x) for x in reqs)
                    )

            results = asyncio.run(go())
            with _client(net) as c:
                stats = c.stats()
        ok = [i for i, r in enumerate(results) if r.http_status == 200]
        rejected = [r for r in results if r.http_status == 429]
        assert len(ok) + len(rejected) == len(reqs)
        assert rejected, "the queue bound never answered 429"
        for r in rejected:
            assert r.status == "rejected"
            assert r.error["code"] == "queue_full"
        assert stats["requests"] == len(ok)
        for i in ok:
            np.testing.assert_array_equal(results[i].output, want[i])

    def test_failed_request_is_500_with_isolated_error(self):
        # a deterministic always-on exception fault exhausts retries and
        # bisection isolates the poison request: 500, structured error
        layers = _layers(44)
        server = _server(layers, max_retries=1, faults="exception:rate=1.0:seed=5")
        with server, _serving(server) as net:
            c = _client(net)
            r = c.infer(_requests(45, n=1)[0])
            assert r.http_status == 500
            assert r.status == "failed"
            assert r.error["code"] == "request_failed"
            assert "injected" in r.error["message"].lower()
            c.close()


class TestBitIdentityOverHttp:
    def test_concurrent_clients_match_serve_async_float64(self):
        # N concurrent HTTP clients vs the same requests streamed through
        # an in-process ServingLoop: float64, bit for bit
        layers = _layers(50, n_layers=3)
        n_clients, per_client = 4, 4
        reqs = _requests(51, n=n_clients * per_client)

        async def inproc():
            server = _server(layers)
            with server:
                async with ServingLoop(server) as loop:
                    futs = [loop.submit_nowait(x) for x in reqs]
                    return [r.output for r in await asyncio.gather(*futs)]

        want = asyncio.run(inproc())

        server = _server(layers)
        outs: dict[int, np.ndarray] = {}
        errors: list = []
        with server, _serving(server) as net:
            def worker(c_idx):
                try:
                    client = _client(net)
                    for j in range(per_client):
                        i = c_idx * per_client + j
                        r = client.infer(reqs[i])
                        assert r.status == "ok", r
                        outs[i] = r.output
                    client.close()
                except BaseException as exc:  # surfaces in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(c,)) for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        assert not errors, errors
        assert len(outs) == len(reqs)
        for i, ref in enumerate(want):
            np.testing.assert_array_equal(outs[i], ref)

    @pytest.mark.parametrize("spec,all_ok", [
        ("exception:wave=1", True),
        ("latency:rate=0.5:duration=0.002:seed=1", True),
        ("exception:rate=0.3:seed=3", False),
    ])
    def test_chaos_over_http_every_request_terminal(self, spec, all_ok):
        # the chaos invariant one network hop out: with faults injected,
        # every HTTP request still gets a terminal response, and every
        # 200 body is bit-identical to the fault-free inline oracle
        self._check_chaos_over_http(spec, all_ok)

    @pytest.mark.parametrize("n_devices", [1, 2])
    def test_chaos_over_http_threaded_across_placements(self, n_devices):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        self._check_chaos_over_http(
            "exception:wave=1", True,
            executor="threaded", watchdog_s=20.0,
            placement=Placement((V100, T4)[:n_devices]),
        )

    def _check_chaos_over_http(self, spec, all_ok, **cfg_kw):
        layers = _layers(52)
        n_clients, per_client = 3, 2
        reqs = _requests(53, n=n_clients * per_client)
        want = _oracle_outputs(layers, reqs)
        server = _server(layers, max_retries=2, faults=spec, **cfg_kw)
        results: dict[int, object] = {}
        errors: list = []
        with server, _serving(server) as net:
            def worker(c_idx):
                try:
                    client = _client(net)
                    for j in range(per_client):
                        i = c_idx * per_client + j
                        results[i] = client.infer(reqs[i])
                    client.close()
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(c,)) for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        assert not errors, errors
        assert len(results) == len(reqs)
        for i, r in sorted(results.items()):
            assert r.http_status in HTTP_TERMINAL, (i, r)
            if all_ok:
                assert r.status == "ok", (i, r)
            if r.status == "ok":
                np.testing.assert_array_equal(r.output, want[i])
            else:
                assert r.status == "failed"
                assert r.error["code"] == "request_failed"


class TestAsyncClientAndTransport:
    def test_async_client_and_load_transport(self):
        layers = _layers(60)
        reqs = _requests(61, n=8)
        want = _oracle_outputs(layers, reqs)
        server = _server(layers)
        with server, _serving(server) as net:
            async def go():
                async with AsyncInferClient("127.0.0.1", net.port) as client:
                    status, doc = await client.get_json("/healthz")
                    assert status == 200 and doc["ready"]
                    r = await client.infer(reqs[0])
                    assert r.status == "ok"
                    np.testing.assert_array_equal(r.output, want[0])
                # more requests than connections: the rest queue client-side
                async with HttpLoadTransport(
                    "127.0.0.1", net.port, connections=3
                ) as transport:
                    results = await asyncio.gather(
                        *(transport.submit_nowait(x) for x in reqs)
                    )
                assert len(results) == len(reqs)
                for r, ref in zip(results, want):
                    assert r.status == "ok", r
                    assert r.latency_s > 0.0
                    np.testing.assert_array_equal(r.output, ref)

            asyncio.run(go())

    def test_load_transport_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="connections"):
            HttpLoadTransport("127.0.0.1", 1, connections=0)

    def test_load_transport_submit_needs_async_with(self):
        transport = HttpLoadTransport("127.0.0.1", 1, connections=1)

        async def go():
            with pytest.raises(RuntimeError, match="async with"):
                transport.submit_nowait(np.zeros((1, 4), np.float32))
            # exiting the context closes the pool; submitting again fails
            async with transport:
                assert len(transport._clients) == 1
            assert transport._clients == []
            with pytest.raises(RuntimeError, match="async with"):
                transport.submit_nowait(np.zeros((1, 4), np.float32))

        asyncio.run(go())


class TestLifecycle:
    def test_graceful_drain_writes_final_stats(self, tmp_path):
        stats_path = tmp_path / "net-stats.json"
        layers = _layers(70)
        server = _server(layers)
        loop = ServingLoop(server)
        net = NetServer(
            loop, port=0, owns_loop=True, drain_timeout_s=10.0,
            stats_json=str(stats_path),
        )
        with server:
            with net:
                c = _client(net)
                for x in _requests(71, n=5):
                    assert c.infer(x).status == "ok"
                c.close()
        assert net.final_stats is not None
        assert net.final_stats["requests"] == 5
        assert net.final_stats["net"]["requests_seen"] == 5
        assert net.final_stats["net"]["drained"] is True
        on_disk = json.loads(stats_path.read_text())
        assert on_disk["requests"] == 5

    def test_submissions_after_close_are_refused(self):
        layers = _layers(72)
        server = _server(layers)
        with server:
            with _serving(server) as net:
                port = net.port
                c = _client(net)
                assert c.infer(_requests(73, n=1)[0]).status == "ok"
                c.close()
            # listener is gone after close: connections are refused
            with pytest.raises(OSError):
                InferClient("127.0.0.1", port).infer(_requests(73, n=1)[0])
