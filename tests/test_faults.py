"""Chaos suite for the fault-tolerant serving path (ISSUE 6).

The invariant under test: under every seeded fault schedule (exceptions,
latency spikes, stalls past the watchdog, poison requests) and both
executors, each
submitted request reaches a terminal status, ``ok`` outputs are
bit-identical to a fault-free ``inline`` run of the same requests, and no
``flush()`` hangs (the ``threaded`` executor's watchdog bounds every wait).
"""

import time

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.runtime import (
    EXECUTORS,
    QueueFullError,
    ServerConfig,
    TWModelServer,
)
from repro.runtime.executor import ThreadedExecutor, resolve_executor
from repro.runtime.faults import (
    FAULTS,
    ExceptionFault,
    Fault,
    FaultInjector,
    FaultRule,
    InjectedFault,
    LatencyFault,
    available_faults,
    resolve_faults,
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
    """Fault-free inline run: the bit-identity reference, one serve each."""
    server = _server(layers)
    return [server.serve(x).output for x in reqs]


class TestRegistry:
    def test_names_and_aliases(self):
        assert available_faults() == ["exception", "latency"]
        assert FAULTS.canonical("error") == "exception"
        assert FAULTS.canonical("spike") == "latency"
        for gone in ("oom", "stall", "hang"):
            with pytest.raises(KeyError):
                FAULTS.canonical(gone)

    def test_create_with_options(self):
        f = FAULTS.create("latency", duration_s=0.01)
        assert isinstance(f, LatencyFault)
        assert f.duration_s == 0.01

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            LatencyFault(duration_s=-1.0)
        with pytest.raises(ValueError):
            LatencyFault(duration_s=float("nan"))

    def test_base_fault_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Fault().fire(0, 0, 0)


class TestFaultRule:
    def test_predicates(self):
        rule = FaultRule(fault="exception", wave=1, layer=(0, 2), slot=None)
        assert rule.matches(1, 0, 5)
        assert rule.matches(1, 2, 0)
        assert not rule.matches(0, 0, 0)  # wrong wave
        assert not rule.matches(1, 1, 0)  # wrong layer

    def test_callable_predicate(self):
        rule = FaultRule(fault="exception", wave=lambda w: w % 2 == 0)
        assert rule.matches(0, 0, 0)
        assert not rule.matches(1, 0, 0)

    def test_rate_is_site_deterministic(self):
        rule = FaultRule(fault="exception", rate=0.5, seed=7)
        sites = [(w, l, s) for w in range(8) for l in range(3) for s in range(2)]
        first = [rule.matches(*site) for site in sites]
        second = [rule.matches(*site) for site in sites]
        assert first == second  # pure function of (seed, site)
        assert any(first) and not all(first)  # the rate actually thins
        other = FaultRule(fault="exception", rate=0.5, seed=8)
        assert [other.matches(*s) for s in sites] != first  # seed matters

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(fault="exception", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule(fault="exception", max_fires=0)
        with pytest.raises(TypeError):
            FaultRule(fault=42)

    def test_max_fires_caps_injections(self):
        inj = FaultInjector([FaultRule(fault="exception", max_fires=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                inj.before_step(0, 0, 0)
        inj.before_step(0, 0, 0)  # budget exhausted: no raise
        assert inj.total_fired == 2
        assert inj.fired_by_kind == {"exception": 2}


class TestFromSpec:
    def test_round_trip(self):
        inj = FaultInjector.from_spec(
            "exception:wave=1;latency:rate=0.25:duration=0.01;"
            "latency:layer=0|2:duration=1:max_fires=1"
        )
        assert len(inj.rules) == 3
        assert isinstance(inj.rules[0].fault, ExceptionFault)
        assert inj.rules[0].wave == 1
        assert inj.rules[1].rate == 0.25
        assert inj.rules[1].fault.duration_s == 0.01
        assert inj.rules[2].layer == (0, 2)
        assert inj.rules[2].fault.duration_s == 1.0
        assert inj.rules[2].max_fires == 1

    def test_aliases_and_seed(self):
        inj = FaultInjector.from_spec("error:seed=5", seed=1)
        assert inj.rules[0].seed == 5
        inj = FaultInjector.from_spec("error", seed=1)
        assert inj.rules[0].seed == 1

    def test_errors(self):
        for gone in ("oom", "stall"):
            with pytest.raises(ValueError, match="available: exception, latency"):
                FaultInjector.from_spec(gone)
        with pytest.raises(ValueError):
            FaultInjector.from_spec("exception:wave")
        with pytest.raises(ValueError):
            FaultInjector.from_spec("exception:nope=1")

    def test_resolve_faults(self):
        inj = FaultInjector()
        assert resolve_faults(None) is None
        assert resolve_faults(inj) is inj
        assert isinstance(resolve_faults("exception"), FaultInjector)
        with pytest.raises(TypeError):
            resolve_faults(42)


# fault schedules for the chaos invariant: (spec, all_ok).  all_ok marks
# schedules guaranteed to recover fully — wave-pinned rules are transient
# (retried waves get fresh indices), latency never fails a wave, and
# max_fires budgets exhaust inside the retry budget.  Rate-based
# exception schedules stay under the *invariant* only: under threaded,
# how many waves launch before a failure is noticed is timing-dependent,
# so retried groups see different wave indices run-to-run and a request
# may legitimately exhaust its budget and terminate failed.
CHAOS_SCHEDULES = [
    ("exception:wave=1", True),
    ("exception:wave=0;exception:wave=2", True),
    ("exception:rate=0.3:seed=3", False),
    ("latency:rate=0.5:duration=0.002:seed=1", True),
    ("exception:max_fires=3", True),
    ("exception:wave=1;latency:rate=0.25:duration=0.001:seed=2", True),
]


class TestChaosInvariant:
    """Every request terminal, ok bits identical to fault-free inline."""

    @pytest.mark.parametrize("spec,all_ok", CHAOS_SCHEDULES)
    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_recovers_from_schedule(self, executor, spec, all_ok):
        layers = _layers(100)
        reqs = _requests(101, n=6)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor=executor,
            max_wave_rows=4,  # 2-row requests -> 2 per wave
            max_retries=2,
            watchdog_s=20.0 if executor == "threaded" else None,
            faults=spec,
        )
        rids = [server.submit(x) for x in reqs]
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert set(by_id) == set(rids)  # every request reached terminal
        assert all(s.status in TERMINAL for s in served)
        for rid, ref in zip(rids, want):
            if all_ok:
                assert by_id[rid].status == "ok"
            if by_id[rid].status == "ok":
                np.testing.assert_array_equal(by_id[rid].output, ref)
            else:
                assert by_id[rid].status == "failed"
                assert isinstance(by_id[rid].error, InjectedFault)

    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_deterministic_layer_fault_poisons_every_request(self, executor):
        # layer-pinned with rate 1: survives retries and bisection alike,
        # so every request terminates failed -- but flush never raises
        layers = _layers(102)
        reqs = _requests(103, n=4)
        server = _server(
            layers,
            executor=executor,
            max_wave_rows=4,
            max_retries=1,
            watchdog_s=20.0 if executor == "threaded" else None,
            faults="exception:layer=0",
        )
        rids = [server.submit(x) for x in reqs]
        served = server.flush()
        assert {s.request_id for s in served} == set(rids)
        assert all(s.status == "failed" for s in served)
        assert all(isinstance(s.error, InjectedFault) for s in served)
        assert server.stats.poisoned == len(reqs)
        # and the server stays usable once the schedule is cleared
        object.__setattr__(server.config, "faults", None)
        ok = server.serve(reqs[0])
        assert ok.status == "ok"

    def test_same_schedule_replays_identically(self):
        # inline is the determinism oracle: the wave-index sequence is a
        # pure function of the request stream, so the whole trajectory —
        # statuses, fire counts, retry counts — replays exactly
        layers = _layers(104)
        reqs = _requests(105, n=5)

        def run():
            server = _server(
                layers,
                max_wave_rows=4,
                max_retries=2,
                faults="exception:rate=0.4:seed=9",
            )
            for x in reqs:
                server.submit(x)
            served = server.flush()
            return (
                [(s.request_id, s.status) for s in served],
                server.config.faults.fired_by_kind,
                server.stats.retries,
            )

        assert run() == run()


class TestChaosInvariantIngress:
    """The continuous ingress preserves the chaos invariant (ISSUE 8).

    Same schedules, same oracle, but requests stream through the asyncio
    :class:`~repro.runtime.ingress.ServingLoop` with mid-stream arrivals
    instead of one lock-step drain: every request still reaches a
    terminal status and every ``ok`` output stays bit-identical to the
    fault-free inline reference.
    """

    @staticmethod
    def _stream(server, reqs, *, deadline_s=None):
        import asyncio

        from repro.runtime.ingress import ServingLoop

        async def go():
            async with ServingLoop(server) as loop:
                futures = []
                for i, x in enumerate(reqs):
                    futures.append(loop.submit_nowait(x, deadline_s=deadline_s))
                    if i % 2 == 1:  # mid-stream: arrivals during flushes
                        await asyncio.sleep(0.001)
                return list(await asyncio.gather(*futures))

        return asyncio.run(go())

    @pytest.mark.parametrize("spec,all_ok", CHAOS_SCHEDULES)
    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_ingress_recovers_from_schedule(self, executor, spec, all_ok):
        layers = _layers(100)
        reqs = _requests(101, n=6)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor=executor,
            max_wave_rows=4,
            max_retries=2,
            watchdog_s=20.0 if executor == "threaded" else None,
            faults=spec,
        )
        with server:
            served = self._stream(server, reqs)
        assert all(s.status in TERMINAL for s in served)
        for s, ref in zip(served, want):
            if all_ok:
                assert s.status == "ok"
            if s.status == "ok":
                np.testing.assert_array_equal(s.output, ref)
            else:
                assert s.status == "failed"
                assert isinstance(s.error, InjectedFault)

    def test_ingress_deadline_expiry_under_faults(self):
        # zero deadline: every request expires before any GEMM runs, even
        # with a fault schedule attached — the ingress surfaces the same
        # graceful terminal statuses the lock-step drain does
        layers = _layers(108)
        reqs = _requests(109, n=4)
        server = _server(
            layers,
            max_wave_rows=4,
            faults="exception:wave=0",
        )
        with server:
            served = self._stream(server, reqs, deadline_s=0.0)
        assert [s.status for s in served] == ["expired"] * len(reqs)
        assert server.stats.expired == len(reqs)


class TestPlacementsUnderFaults:
    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    @pytest.mark.parametrize("n_devices", [1, 2])
    def test_multi_device_recovery_bit_identical(self, executor, n_devices):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        devices = (V100, T4)[:n_devices]
        layers = _layers(106)
        reqs = _requests(107, n=6)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor=executor,
            max_wave_rows=4,
            max_retries=2,
            placement=Placement(devices),
            watchdog_s=20.0 if executor == "threaded" else None,
            faults="exception:wave=1;latency:rate=0.2:duration=0.001:seed=4",
        )
        rids = [server.submit(x) for x in reqs]
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert set(by_id) == set(rids)
        for rid, ref in zip(rids, want):
            assert by_id[rid].status == "ok"
            np.testing.assert_array_equal(by_id[rid].output, ref)


class TestAdmission:
    def test_reject_policy_raises_queue_full(self):
        layers = _layers(108)
        server = _server(layers, max_queue_rows=4)
        server.submit(np.zeros((2, 24)))
        server.submit(np.zeros((2, 24)))
        with pytest.raises(QueueFullError):
            server.submit(np.zeros((2, 24)))
        assert server.stats.shed == 0
        assert len(server.flush()) == 2  # admitted requests unaffected

    def test_oversized_request_always_rejected(self):
        layers = _layers(109)
        for policy in ("reject", "shed_oldest"):
            server = _server(layers, max_queue_rows=4, shed_policy=policy)
            with pytest.raises(QueueFullError):
                server.submit(np.zeros((5, 24)))

    def test_shed_oldest_policy_sheds_with_terminal_status(self):
        layers = _layers(110)
        reqs = _requests(111, n=3)
        want = _oracle_outputs(layers, reqs)
        server = _server(layers, max_queue_rows=4, shed_policy="shed_oldest")
        rids = [server.submit(x) for x in reqs]  # third submit sheds first
        assert server.stats.shed == 1
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert set(by_id) == set(rids)  # the shed request still surfaces
        assert by_id[rids[0]].status == "shed"
        assert by_id[rids[0]].output is None
        for rid, ref in zip(rids[1:], want[1:]):
            assert by_id[rid].status == "ok"
            np.testing.assert_array_equal(by_id[rid].output, ref)

    def test_expired_deadline_sheds_before_any_gemm(self):
        layers = _layers(112)
        reqs = _requests(113, n=2)
        server = _server(layers)
        expired_rid = server.submit(reqs[0], deadline_s=0.0)
        ok_rid = server.submit(reqs[1])
        time.sleep(0.002)
        gemms_before = server.stats.gemms
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert by_id[expired_rid].status == "expired"
        assert by_id[expired_rid].output is None
        assert by_id[ok_rid].status == "ok"
        assert server.stats.expired == 1
        # only the surviving request's layers ran
        assert server.stats.gemms - gemms_before == len(layers)

    def test_deadline_orders_wave_assembly(self):
        layers = _layers(114)
        reqs = _requests(115, n=3)
        server = _server(layers, max_wave_rows=2)  # one request per wave
        no_deadline = server.submit(reqs[0])
        tight = server.submit(reqs[1], deadline_s=60.0)
        loose = server.submit(reqs[2], deadline_s=120.0)
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        # shortest deadline runs first; deadline-free traffic goes last
        assert by_id[tight].batch_id < by_id[loose].batch_id
        assert by_id[loose].batch_id < by_id[no_deadline].batch_id

    def test_deadline_validation(self):
        layers = _layers(116)
        server = _server(layers)
        with pytest.raises(ValueError):
            server.submit(np.zeros((1, 24)), deadline_s=-1.0)
        with pytest.raises(ValueError):
            server.submit(np.zeros((1, 24)), deadline_s=float("inf"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ServerConfig(shed_policy="drop_newest")
        with pytest.raises(ValueError):
            ServerConfig(max_queue_rows=-1)
        with pytest.raises(ValueError):
            ServerConfig(watchdog_s=float("nan"))
        with pytest.raises(TypeError):
            ServerConfig(faults=42)


class TestWatchdog:
    def test_stall_fails_wave_instead_of_hanging(self):
        # a stall far beyond the watchdog: flush must return (bounded),
        # the wave fails with TimeoutError, and retries then succeed
        # because the stall rule is wave-pinned (transient)
        layers = _layers(117)
        reqs = _requests(118, n=2)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor="threaded",
            max_wave_rows=4,
            max_retries=1,
            watchdog_s=0.2,
            faults=FaultInjector(
                [FaultRule(fault=LatencyFault(duration_s=1.0), wave=0)]
            ),
        )
        rids = [server.submit(x) for x in reqs]
        t0 = time.perf_counter()
        served = server.flush()
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0  # bounded: no unbounded hang on the stall
        by_id = {s.request_id: s for s in served}
        assert set(by_id) == set(rids)
        for rid, ref in zip(rids, want):
            assert by_id[rid].status == "ok"
            np.testing.assert_array_equal(by_id[rid].output, ref)
        assert server.stats.retries >= 1

    def test_persistent_stall_terminates_failed(self):
        # layer-pinned stall: every attempt (and bisected half) stalls, so
        # requests terminate failed with TimeoutError -- still no hang
        layers = _layers(119)
        server = _server(
            layers,
            executor="threaded",
            max_retries=0,
            watchdog_s=0.15,
            faults=FaultInjector(
                [FaultRule(fault=LatencyFault(duration_s=0.6), layer=0)]
            ),
        )
        rid = server.submit(np.zeros((2, 24)))
        served = server.flush()
        (req,) = served
        assert req.request_id == rid
        assert req.status == "failed"
        assert isinstance(req.error, TimeoutError)

    def test_watchdog_respawns_worker(self):
        layers = _layers(120)
        server = _server(layers, executor="threaded", max_retries=0, watchdog_s=0.15)
        # workers spawn lazily on first use: serve once to materialise one
        assert server.serve(np.zeros((2, 24))).status == "ok"
        before = list(server.executor._threads)
        assert len(before) == 1
        object.__setattr__(
            server.config,
            "faults",
            FaultInjector([FaultRule(fault=LatencyFault(duration_s=0.5), layer=0)]),
        )
        server.submit(np.zeros((2, 24)))
        (req,) = server.flush()
        assert req.status == "failed"
        after = list(server.executor._threads)
        assert len(after) == len(before)
        assert after[0] is not before[0]  # stalled worker replaced
        # the respawned worker serves the next flush normally
        object.__setattr__(server.config, "faults", None)
        assert server.serve(np.zeros((2, 24))).status == "ok"

    def test_watchdog_validation(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(watchdog_s=-1.0)
        assert ThreadedExecutor(watchdog_s=0).watchdog_s is None  # disabled
        assert ThreadedExecutor().watchdog_s == 60.0


class TestExecutorHardening:
    def test_strict_option_validation(self):
        # an option an executor does not take is an error, not a no-op
        with pytest.raises(TypeError):
            EXECUTORS.create("inline", watchdog_s=3)
        with pytest.raises(TypeError, match="turbo"):
            EXECUTORS.create("threaded", turbo=True)
        with pytest.raises(TypeError, match="workers"):
            EXECUTORS.create("threaded", workers=2)  # removed: one worker per slot
        with pytest.raises(TypeError):
            resolve_executor("inline", watchdog_s=3)
        from repro.runtime.executor import InlineExecutor

        assert isinstance(EXECUTORS.create("inline"), InlineExecutor)

    def test_server_config_rejects_inline_watchdog(self):
        with pytest.raises(ValueError, match="does not accept"):
            TWModelServer(ServerConfig(executor="inline", watchdog_s=2))

    def test_worker_survives_base_exception(self):
        # a non-Exception error must fail the wave visibly, not kill the
        # worker thread silently (the old loop had no guard at all)
        class Boom(BaseException):
            pass

        class BaseExceptionFault(Fault):
            kind = "base-boom"

            def fire(self, wave, layer, slot):
                raise Boom(f"wave={wave}")

        layers = _layers(121)
        reqs = _requests(122, n=2)
        want = _oracle_outputs(layers, reqs)
        server = _server(
            layers,
            executor="threaded",
            max_retries=1,
            watchdog_s=10.0,
            faults=FaultInjector(
                [FaultRule(fault=BaseExceptionFault(), wave=0)]
            ),
        )
        rids = [server.submit(x) for x in reqs]
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        for rid, ref in zip(rids, want):
            assert by_id[rid].status == "ok"  # retried on a live worker
            np.testing.assert_array_equal(by_id[rid].output, ref)
        assert all(t.is_alive() for t in server.executor._threads)

    def test_worker_loop_survives_malformed_queue_item(self):
        ex = ThreadedExecutor()
        ex._inbox(0).put("garbage")  # would have killed the old loop
        time.sleep(0.05)
        assert ex._threads[0].is_alive()

class TestStatsAndStrictMode:
    def test_retry_stats_accounted(self):
        layers = _layers(125)
        server = _server(
            layers,
            max_wave_rows=4,
            max_retries=2,
            faults="exception:wave=0",
        )
        for x in _requests(126, n=2):
            server.submit(x)
        served = server.flush()
        assert all(s.status == "ok" for s in served)
        assert server.stats.retries == 1
        assert server.stats.requeues == 2
        assert server.stats.poisoned == 0

    def test_flush_returns_sorted_by_request_id(self):
        layers = _layers(130)
        reqs = _requests(131, n=4)
        server = _server(layers, max_wave_rows=2, faults="exception:wave=1")
        rids = [server.submit(x) for x in reqs]
        served = server.flush()
        assert [s.request_id for s in served] == sorted(rids)
