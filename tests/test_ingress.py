"""Continuous-batching ingress invariants (ISSUE 8).

The core property: streaming requests through the asyncio
:class:`ServingLoop` — whatever the interleaving of arrivals and
admissions — produces bit-identical outputs to a sequential drain of
the same requests on the ``inline`` executor.  Plus the satellite
contracts: honest latency accounting (enqueue→terminal, queue wait and
GEMM service split) and the structured stats export.

pytest-asyncio is not a dependency; every async body runs under
``asyncio.run`` inside a plain sync test.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.runtime import (
    IngressClosed,
    ServerConfig,
    ServingLoop,
    TWModelServer,
)

TERMINAL = {"ok", "failed", "shed", "expired"}


def _pruned_layer(rng, k, n, sparsity=0.5, g=8):
    """One TW-pruned layer, compacted; the server plans it on first use."""
    dense = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    return TiledTWMatrix.from_masks(dense, g, step.col_keeps[0], step.row_masks[0])


def _layers(seed, n_layers=2, k=24, g=8):
    rng = np.random.default_rng(seed)
    return [_pruned_layer(rng, k, k, g=g) for _ in range(n_layers)]


def _server(layers, **cfg_kw):
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


def _stream(server, reqs, *, pause_every=0, deadline_s=None):
    """Stream ``reqs`` through a ServingLoop; return terminal results in order.

    ``pause_every > 0`` yields to the event loop mid-stream, so later
    submissions arrive while earlier waves are flushing — the continuous
    admission interleavings the bit-identity property must survive.
    """

    async def go():
        async with ServingLoop(server) as loop:
            futures = []
            for i, x in enumerate(reqs):
                futures.append(loop.submit_nowait(x, deadline_s=deadline_s))
                if pause_every and (i + 1) % pause_every == 0:
                    await asyncio.sleep(0.002)
            return list(await asyncio.gather(*futures))

    return asyncio.run(go())


class TestBitIdentity:
    """Continuous admission == sequential drain, bit for bit."""

    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    @pytest.mark.parametrize("pause_every", [0, 2])
    def test_matches_sequential_drain(self, executor, n_devices, pause_every):
        from repro.gpu.device import V100
        from repro.runtime import Placement

        layers = _layers(10, n_layers=3)
        reqs = _requests(11, n=8)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor=executor,
            placement=Placement((V100,) * n_devices),
            watchdog_s=20.0 if executor == "threaded" else None,
            max_wave_rows=4,
        )
        with server:
            served = _stream(server, reqs, pause_every=pause_every)
        assert [s.status for s in served] == ["ok"] * len(reqs)
        for s, ref in zip(served, want):
            np.testing.assert_array_equal(s.output, ref)

    def test_single_submit_roundtrip(self):
        layers = _layers(14)
        (req,) = _requests(15, n=1)
        (want,) = _oracle_outputs(layers, [req])

        async def go():
            async with ServingLoop(_server(layers), owns_server=True) as loop:
                return await loop.submit(req)

        served = asyncio.run(go())
        assert served.status == "ok"
        np.testing.assert_array_equal(served.output, want)


class TestLatencyAccounting:
    """latency_s is enqueue→terminal and splits into wait + service."""

    def test_ok_latency_splits(self):
        layers = _layers(20)
        reqs = _requests(21, n=4)
        server = _server(layers, max_wave_rows=4)
        with server:
            served = _stream(server, reqs)
        for s in served:
            assert s.service_s > 0.0
            assert s.queue_wait_s >= 0.0
            assert s.latency_s == pytest.approx(
                s.queue_wait_s + s.service_s, abs=1e-9
            )

    def test_backlogged_wave_pays_queue_wait(self):
        # every GEMM dwells 5ms (latency fault, never fails): with 2-row
        # requests and 4-row waves, the second wave's requests wait for
        # the first wave's ~2x5ms of service before their own launch
        layers = _layers(22)
        reqs = _requests(23, n=4)
        server = _server(
            layers, faults="latency:rate=1.0:duration=0.005", max_wave_rows=4,
        )
        with server:
            served = _stream(server, reqs)
        assert all(s.status == "ok" for s in served)
        last = max(served, key=lambda s: s.queue_wait_s)
        assert last.queue_wait_s > 0.005
        assert last.latency_s == pytest.approx(
            last.queue_wait_s + last.service_s, abs=1e-9
        )

    def test_enqueued_at_backdates_latency(self):
        import time

        layers = _layers(24)
        (req,) = _requests(25, n=1)
        server = _server(layers)
        past = time.perf_counter() - 1.0
        server.submit(req, enqueued_at=past)
        (served,) = server.flush()
        assert served.latency_s >= 1.0
        assert served.queue_wait_s >= 1.0

    def test_enqueued_at_rejects_future_stamp(self):
        import time

        layers = _layers(26)
        (req,) = _requests(27, n=1)
        server = _server(layers)
        with pytest.raises(ValueError, match="future"):
            server.submit(req, enqueued_at=time.perf_counter() + 60.0)

    def test_deadline_anchored_at_enqueue(self):
        import time

        # a deadline that already passed relative to the arrival stamp
        # expires even though admission happens "now"
        layers = _layers(28)
        (req,) = _requests(29, n=1)
        server = _server(layers)
        server.submit(
            req, deadline_s=0.5, enqueued_at=time.perf_counter() - 1.0
        )
        (served,) = server.flush()
        assert served.status == "expired"
        assert served.queue_wait_s == pytest.approx(served.latency_s)
        assert served.service_s == 0.0

    def test_deadline_expiry_through_ingress(self):
        layers = _layers(30)
        reqs = _requests(31, n=3)
        server = _server(layers)
        with server:
            served = _stream(server, reqs, deadline_s=0.0)
        assert [s.status for s in served] == ["expired"] * 3


class TestBackpressure:
    """``max_queue_rows`` bounds the server queue the ingress submits
    into, by ``shed_policy``."""

    def _flood(self, policy):
        # 200 submissions with no await in between: the admission loop
        # cannot run, so everything lands on the queue at once
        import repro

        rng = np.random.default_rng(60)
        model = repro.compile(
            [rng.standard_normal((24, 24)) for _ in range(2)],
            sparsity=0.5, granularity=8,
        )
        xs = [rng.standard_normal((8, 24)) for _ in range(200)]

        async def go():
            async with model.serve_async(
                max_queue_rows=16, max_wave_rows=8, shed_policy=policy
            ) as loop:
                futures = [loop.submit_nowait(x) for x in xs]
                depth_rows = loop.stats_record()["queue"]["depth_rows"]
                results = await asyncio.gather(*futures, return_exceptions=True)
                return depth_rows, results, loop.stats_record()

        depth_rows, results, rec = asyncio.run(go())
        assert depth_rows == 16
        assert rec["requests"] == 2
        # the two requests the bound kept are served like run() serves them
        kept = [i for i, r in enumerate(results) if getattr(r, "status", None) == "ok"]
        assert len(kept) == 2
        for i in kept:
            np.testing.assert_array_equal(results[i].output, model.run(xs[i]))
        return kept, results, rec

    def test_reject_fails_the_newest_futures_with_queue_full(self):
        from repro.runtime import QueueFullError

        kept, results, rec = self._flood("reject")
        assert kept == [0, 1]
        for r in results[2:]:
            assert isinstance(r, QueueFullError)
        assert rec["slo"]["shed"] == 0

    def test_shed_oldest_resolves_the_oldest_as_shed(self):
        kept, results, rec = self._flood("shed_oldest")
        assert kept == [198, 199]
        for r in results[:198]:
            assert r.status == "shed" and r.output is None
            assert r.request_id >= 0 and r.batch_id == -1
            assert r.latency_s == r.queue_wait_s >= 0.0
        assert rec["slo"]["shed"] == 198

    def test_submit_nowait_rejects_non_2d_request(self):
        layers = _layers(62)
        (req,) = _requests(63, n=1)

        async def go():
            async with ServingLoop(_server(layers), owns_server=True) as loop:
                with pytest.raises(ValueError, match="2-D"):
                    loop.submit_nowait(np.zeros((1, 24, 3)))
                with pytest.raises(ValueError, match="model K"):
                    loop.submit_nowait(np.zeros((1, 7)))
                return await loop.submit(req), loop.server.stats

        served, stats = asyncio.run(go())
        assert served.status == "ok"
        assert stats.retries == stats.requeues == 0


class TestOneQueue:
    """The ingress submits straight into the server's queue: one
    validation, one bound, one shortest-deadline-first order."""

    def test_urgent_request_goes_in_the_first_wave(self):
        # five deadline-free 2-row requests, then one with a 30 ms budget;
        # each 2-row wave spends 2 x 10 ms in GEMMs, so the urgent request
        # is ok only if it is served first, not sixth
        import repro

        rng = np.random.default_rng(64)
        model = repro.compile(
            [rng.standard_normal((24, 24)) for _ in range(2)],
            sparsity=0.5, granularity=8,
        )
        xs = [rng.standard_normal((2, 24)) for _ in range(6)]

        async def go():
            async with model.serve_async(
                max_wave_rows=2, faults="latency:rate=1.0:duration=0.01"
            ) as loop:
                futures = [loop.submit_nowait(x) for x in xs[:5]]
                futures.append(loop.submit_nowait(xs[5], deadline_s=0.03))
                return await asyncio.gather(*futures)

        served = asyncio.run(go())
        assert [s.status for s in served] == ["ok"] * 6
        for s, x in zip(served, xs):
            np.testing.assert_array_equal(s.output, model.run(x))

    def test_bad_deadline_raises_at_the_call_and_holds_no_rows(self):
        layers = _layers(65)
        x = _requests(66, n=1, rows=8)[0]

        async def go():
            async with ServingLoop(
                _server(layers, max_queue_rows=16), owns_server=True
            ) as loop:
                with pytest.raises(ValueError, match="deadline_s"):
                    loop.submit_nowait(x, deadline_s=-1)
                depth_rows = loop.stats_record()["queue"]["depth_rows"]
                return depth_rows, await loop.submit(x)

        depth_rows, served = asyncio.run(go())
        assert depth_rows == 0
        assert served.status == "ok"

    def test_submit_racing_flush_returns_every_id_once(self):
        import threading
        import time

        layers = _layers(67)
        reqs = _requests(68, n=40)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers, faults="latency:rate=1.0:duration=0.002", max_wave_rows=4,
        )
        ids = []

        def produce():
            for x in reqs:
                ids.append(server.submit(x))
                time.sleep(0.0005)

        producer = threading.Thread(target=produce)
        served = []
        with server:
            producer.start()
            while producer.is_alive():
                served.extend(server.flush(max_rows=4))
            producer.join()
            served.extend(server.flush())
        got = [s.request_id for s in served]
        assert sorted(got) == ids == list(range(len(reqs)))
        assert server.stats_record()["queue"]["depth_rows"] == 0
        for s in served:
            assert s.status == "ok"
            np.testing.assert_array_equal(s.output, want[s.request_id])

    def test_cancelled_future_still_runs_and_leaves_nothing_inflight(self):
        layers = _layers(69)
        reqs = _requests(70, n=3)
        server = _server(
            layers, faults="latency:rate=1.0:duration=0.005", max_wave_rows=2,
        )

        async def go():
            async with ServingLoop(server, owns_server=True) as loop:
                futures = [loop.submit_nowait(x) for x in reqs]
                futures[2].cancel()
                await loop.drain()
                return futures, loop.stats_record()

        futures, rec = asyncio.run(go())
        assert rec["ingress"]["inflight_requests"] == 0
        assert rec["requests"] == 3  # the cancelled request ran anyway
        assert [f.result().status for f in futures[:2]] == ["ok", "ok"]
        assert futures[2].cancelled()


    def test_request_flushed_behind_the_loop_fails_instead_of_spinning(self):
        layers = _layers(71)
        (req,) = _requests(72, n=1)

        async def go():
            async with ServingLoop(_server(layers), owns_server=True) as loop:
                fut = loop.submit_nowait(req)
                (stolen,) = loop.server.flush()
                assert await loop.drain(timeout_s=5.0) is True
                with pytest.raises(RuntimeError, match="outside"):
                    fut.result()
                return stolen, await loop.submit(req)

        stolen, served = asyncio.run(go())
        assert stolen.status == served.status == "ok"


class TestLifecycle:
    def test_submit_after_close_raises(self):
        layers = _layers(40)
        (req,) = _requests(41, n=1)

        async def go():
            loop = ServingLoop(_server(layers), owns_server=True)
            async with loop:
                await loop.submit(req)
            with pytest.raises(IngressClosed):
                loop.submit_nowait(req)

        asyncio.run(go())

    def test_close_drains_backlog(self):
        layers = _layers(42)
        reqs = _requests(43, n=6)
        want = _oracle_outputs(layers, reqs)

        async def go():
            loop = ServingLoop(
                _server(layers, max_wave_rows=4), owns_server=True
            )
            futures = [loop.submit_nowait(x) for x in reqs]
            await loop.close()  # must finish the queue first
            return [f.result() for f in futures]

        served = asyncio.run(go())
        for s, ref in zip(served, want):
            assert s.status == "ok"
            np.testing.assert_array_equal(s.output, ref)

    def test_owns_server_closes_server(self):
        layers = _layers(44)
        server = _server(layers)

        async def go():
            async with ServingLoop(server, owns_server=True):
                pass

        asyncio.run(go())
        assert server._closed

    def test_drain_waits_for_all_terminals(self):
        layers = _layers(45)
        reqs = _requests(46, n=5)

        async def go():
            async with ServingLoop(
                _server(layers, max_wave_rows=4), owns_server=True
            ) as loop:
                futures = [loop.submit_nowait(x) for x in reqs]
                await loop.drain()
                assert all(f.done() for f in futures)
                return [f.result() for f in futures]

        served = asyncio.run(go())
        assert all(s.status == "ok" for s in served)

    def test_drain_timeout_bounds_the_wait(self):
        # waves run on the event-loop thread, so a bounded drain returns at
        # wave granularity: a latency fault keeps each of three one-wave
        # requests busy past the bound, and drain reports False once the
        # started wave finishes, not after the whole queue; an unbounded
        # retry still sees every terminal
        layers = _layers(48)
        server = _server(
            layers, faults="latency:rate=1.0:duration=0.2:seed=1",
            max_wave_rows=4,
        )

        async def go():
            async with ServingLoop(server, owns_server=True) as loop:
                assert await loop.drain(timeout_s=0.5) is True  # idle: fast
                futs = [loop.submit_nowait(x) for x in _requests(49, n=3, rows=4)]
                assert await loop.drain(timeout_s=0.01) is False
                assert loop.stats_record()["ingress"]["waves_admitted"] <= 1
                assert not all(f.done() for f in futs)
                assert await loop.drain() is True
                assert [f.result().status for f in futs] == ["ok"] * 3

        asyncio.run(go())

    def test_waves_run_on_the_event_loop_thread(self):
        layers = _layers(52)
        server = _server(layers, executor="inline", max_wave_rows=4)
        wave_threads = []
        flush = server.flush

        def recording_flush(**kw):
            wave_threads.append(threading.get_ident())
            return flush(**kw)

        server.flush = recording_flush

        async def go():
            async with ServingLoop(server, owns_server=True) as loop:
                await asyncio.gather(*(loop.submit(x) for x in _requests(53, n=3)))
            return threading.get_ident()

        loop_thread = asyncio.run(go())
        assert wave_threads and set(wave_threads) == {loop_thread}

    def test_serving_loop_adds_no_thread(self):
        layers = _layers(54)
        server = _server(layers, executor="inline")
        # compared as sets: a thread an earlier test left running may end
        # meanwhile, which would move active_count() without this loop
        before = set(threading.enumerate())

        async def go():
            loop = ServingLoop(server, owns_server=True)
            loop.start()
            served = await loop.submit(_requests(55, n=1)[0])
            during = set(threading.enumerate())
            await loop.close()
            return served, during

        served, during = asyncio.run(go())
        assert served.status == "ok"
        assert not during - before
        assert not set(threading.enumerate()) - before


class TestStatsExport:
    def test_server_stats_record_structure(self):
        layers = _layers(50)
        reqs = _requests(51, n=4)
        server = _server(layers, executor="inline")
        for x in reqs:
            server.serve(x)
        rec = server.stats_record()
        json.dumps(rec)  # JSON-ready end to end
        assert rec["requests"] == 4
        assert rec["queue"] == {
            "depth_requests": 0, "depth_rows": 0, "max_queue_rows": 0,
        }
        assert rec["waves"]["count"] == 4
        assert 0 < rec["waves"]["occupancy"] <= 1
        assert rec["cache"]["format_hit_rate"] > 0
        assert rec["executor"] == "inline"
        assert rec["placement"] == {"devices": ["Tesla V100-SXM2"], "slots": 1}
        assert set(rec["latency_ms"]) == {"mean", "p50", "p95", "p99", "window"}
        assert rec["latency_ms"]["p99"] >= rec["latency_ms"]["p50"] > 0
        assert rec["device_busy_pct"]  # at least one slot attributed

    def test_percentiles_from_window(self):
        from repro.runtime import ServerStats

        stats = ServerStats()
        stats.latencies_s.extend([0.001 * i for i in range(1, 101)])
        assert stats.p50_latency_s() == pytest.approx(0.0505, rel=1e-6)
        assert stats.p99_latency_s() <= 0.1
        assert stats.percentile_latency_s(100.0) == pytest.approx(0.1)
        assert ServerStats().p99_latency_s() == 0.0

    def test_ingress_record_adds_traffic_context(self):
        layers = _layers(52)
        reqs = _requests(53, n=4)
        server = _server(layers, max_wave_rows=4)

        async def go():
            async with ServingLoop(server, owns_server=True) as loop:
                await asyncio.gather(
                    *[loop.submit_nowait(x) for x in reqs]
                )
                return loop.stats_record()

        rec = asyncio.run(go())
        json.dumps(rec)
        ing = rec["ingress"]
        assert rec["queue"]["depth_requests"] == 0
        assert ing["unresolved_requests"] == 0
        assert ing["waves_admitted"] >= 1
        assert rec["waves"]["max_wave_rows"] == 4

    def test_periodic_stats_line(self):
        layers = _layers(54)
        reqs = _requests(55, n=4)
        lines = []

        async def go():
            async with ServingLoop(
                _server(layers),
                owns_server=True,
                stats_interval_s=0.01,
                stats_log=lines.append,
            ) as loop:
                await asyncio.gather(*[loop.submit_nowait(x) for x in reqs])
                await asyncio.sleep(0.05)

        asyncio.run(go())
        assert lines and all(l.startswith("ingress:") for l in lines)
        assert "p99=" in lines[-1]


class TestServeAsyncFrontDoor:
    def test_compiled_model_serve_async(self):
        import repro
        from repro.api import demo_layer_stack

        weights, names = demo_layer_stack(
            "bert", scale=16, blocks=1, seed=5, dtype=np.float32
        )
        model = repro.compile(
            weights, pattern="tw", sparsity=0.75, granularity=8,
            dtype=np.float32, names=names,
        )
        rng = np.random.default_rng(6)
        xs = [
            rng.standard_normal((2, weights[0].shape[0])).astype(np.float32)
            for _ in range(4)
        ]
        server = model.serve()
        want = [server.serve(x).output for x in xs]
        server.close()

        # awaited one by one: each wave holds exactly one request, so the
        # GEMM inputs match the oracle's serve() calls bit for bit even at
        # float32 BERT scale (BLAS rounding varies with batch row-count;
        # regrouping identity is covered on the float64 bed above)
        async def go():
            async with model.serve_async() as loop:
                return [await loop.submit(x) for x in xs]

        served = asyncio.run(go())
        for s, ref in zip(served, want):
            assert s.status == "ok"
            np.testing.assert_array_equal(s.output, ref)
