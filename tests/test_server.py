"""Tests for the TW serving layer: compiled layers in, micro-batching, stats."""

import numpy as np
import pytest

import repro
from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.kernels.masked import tw_gemm, tw_gemm_reference
from repro.formats.tiled import TiledTWMatrix
from repro.runtime import ServerConfig, ServerStats, TWModelServer


def _pruned_layer(rng, k, n, sparsity=0.5, g=8, dtype=np.float64):
    """One TW-pruned layer, compacted."""
    dense = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    return TiledTWMatrix.from_masks(
        dense, g, step.col_keeps[0], step.row_masks[0], dtype=dtype
    )


def _server(rng, n_layers=2, k=24, g=8, dtype=np.float64, **cfg_kw):
    server = TWModelServer(ServerConfig(**cfg_kw))
    for _ in range(n_layers):
        server.add_layer(_pruned_layer(rng, k, k, g=g, dtype=dtype))
    return server


def _compiled(seed=0, n_layers=3, k=32, **compile_kw):
    rng = np.random.default_rng(seed)
    ws = [rng.standard_normal((k, k)) for _ in range(n_layers)]
    x = rng.standard_normal((4, k))
    compile_kw.setdefault("granularity", 8)
    return repro.compile(ws, sparsity=0.5, **compile_kw), x


class TestCaches:
    def test_serve_never_compacts(self, monkeypatch):
        model, x = _compiled()

        def no_compaction(*args, **kwargs):
            raise AssertionError("serving must not compact weights")

        monkeypatch.setattr(TiledTWMatrix, "from_masks", no_compaction)
        server = model.serve()
        server.warm()
        for _ in range(2):  # before and after a close()
            res = server.serve(x)
            server.close()
            assert res.status == "ok", res
            np.testing.assert_array_equal(res.output, model.run(x))
        assert server.stats.format_misses == 0
        assert server.stats.format_hits == 6  # 3 layers x 2 waves
        # the server holds the model's own formats, not copies
        assert all(s.tw is m.tw for s, m in zip(server._layers, model.layers))

    def test_second_request_skips_construction(self):
        model, x = _compiled(seed=1)
        server = model.serve()
        try:
            first = server.serve(x)
            second = server.serve(x)
        finally:
            server.close()
        np.testing.assert_array_equal(second.output, first.output)
        # the second wave looks every layer up again and builds nothing
        assert server.stats.format_hits == 2 * model.n_layers
        assert server.stats.format_misses == 0

    def test_stats_record_has_no_eviction_counters(self):
        model, x = _compiled(seed=5)
        with model.serve() as server:
            server.serve(x)
            caches = server.stats.record()["cache"]
        assert not any("eviction" in key for key in caches), caches
        assert caches["format_misses"] == 0

    @pytest.mark.parametrize(
        "dtype, compute",
        [("float64", "float64"), ("float32", "float32"),
         ("float16", "float32"), ("int8", "float32")],
    )
    def test_warm_builds_every_tile_operand(self, dtype, compute):
        model, x = _compiled(seed=1, dtype=dtype)
        with model.serve() as server:
            server.warm()
            memos = []
            for layer in model.layers:
                memo = layer.tw.__dict__["_tile_operands"]
                assert list(memo) == [np.dtype(compute).str]  # one compute dtype
                operands = memo[np.dtype(compute).str]
                assert len(operands) == len(layer.tw.tiles)
                memos.append((operands, [id(op) for op in operands]))
            res = server.serve(x)
        assert res.status == "ok", res
        np.testing.assert_array_equal(res.output, model.run(x))
        # the first flush built no entry: same lists holding the same operands
        for layer, (operands, ids) in zip(model.layers, memos):
            memo = layer.tw.__dict__["_tile_operands"]
            assert len(memo) == 1
            assert next(iter(memo.values())) is operands
            assert [id(op) for op in operands] == ids

    def test_placement_override_serves_without_planning(self, monkeypatch):
        import repro.api
        import repro.runtime.batching
        import repro.runtime.scheduler
        import repro.runtime.server
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        model, x = _compiled(seed=2)  # compiled for a single V100

        def no_planning(*args, **kwargs):
            raise AssertionError("serving must not plan")

        for mod, name in [
            (repro.api, "build_execution_plan"),
            (repro.runtime.server, "build_execution_plan"),
            (repro.runtime.scheduler, "build_execution_plan"),
            (repro.runtime.scheduler, "assign_streams"),
            (repro.runtime.batching, "batching_plan"),
        ]:
            monkeypatch.setattr(mod, name, no_planning)
        server = model.serve(placement=Placement("replicated", (V100, T4)))
        try:
            server.warm()
            for _ in range(3):  # waves alternate V100, T4, V100
                np.testing.assert_array_equal(server.serve(x).output, model.run(x))
        finally:
            server.close()
        assert set(server.stats.device_gemms) == {"Tesla V100-SXM2#0", "Tesla T4#1"}


class TestServesCompiledModel:
    """Granularity, payload dtype and compaction belong to ``repro.compile``."""

    @pytest.mark.parametrize(
        "override", [{"granularity": 4}, {"dtype": "float32"}], ids=["granularity", "dtype"]
    )
    def test_compile_time_option_override_is_rejected(self, override):
        model, _ = _compiled()
        with pytest.raises(TypeError, match=next(iter(override))):
            model.serve(**override)

    @pytest.mark.parametrize("name", ["storage_dtype", "cache_budget", "pace", "workers"])
    def test_removed_server_option_is_rejected(self, name):
        model, _ = _compiled()
        with pytest.raises(TypeError, match=name):
            model.serve(**{name: 1})
        with pytest.raises(TypeError, match=name):
            ServerConfig(**{name: 1})

    def test_removed_plan_arguments_are_rejected(self):
        # host execution walks the tiles: neither the kernel nor the
        # server takes a plan
        model, x = _compiled()
        layer = model.layers[0]
        with pytest.raises(TypeError, match="plan"):
            tw_gemm(x, layer.tw, plan=layer.plans)
        with pytest.raises(TypeError):
            TWModelServer().add_layer(layer.tw, layer.plans)

    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_unreorganized_model_serves_bit_identical_to_run(self, executor):
        # without column reorganisation the tile layout is compile's own
        # decision; a server that re-compacted (e.g. after close()) lost it
        model, x = _compiled(
            seed=3, prune_config=TWPruneConfig(granularity=8, reorganize=False)
        )
        reqs = [x[:2], x[2:]]
        with model.serve(executor=executor, max_wave_rows=2) as server:
            for _ in range(2):  # before and after a close()
                for r in reqs:
                    server.submit(r)
                served = server.flush()
                server.close()
                for s, r in zip(served, reqs):
                    assert s.status == "ok", s
                    np.testing.assert_array_equal(s.output, model.run(r))

    @pytest.mark.parametrize("placement", ["single", "replicated"])
    def test_unreorganized_model_serves_bit_identical_across_placements(
        self, placement
    ):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        devices = (V100,) if placement == "single" else (V100, T4)
        model, x = _compiled(
            seed=6,
            prune_config=TWPruneConfig(granularity=8, reorganize=False),
            placement=Placement(placement, devices),
        )
        reqs = [x[:2], x[2:]]
        with model.serve(executor="threaded", max_wave_rows=2) as server:
            for r in reqs:  # one wave each
                server.submit(r)
            served = server.flush()
        for s, r in zip(served, reqs):
            assert s.status == "ok", s
            np.testing.assert_array_equal(s.output, model.run(r))


class TestServing:
    def test_matches_reference_per_layer_chain(self):
        rng = np.random.default_rng(3)
        server = _server(rng, n_layers=2, k=24)
        x = rng.standard_normal((5, 24))
        got = server.serve(x).output
        a = x
        for layer in server._layers:
            a = tw_gemm_reference(a, layer.tw)
        np.testing.assert_allclose(got, a, rtol=0, atol=1e-10)

    def test_microbatch_outputs_match_individual_serves(self):
        rng = np.random.default_rng(4)
        server = _server(rng, n_layers=2)
        reqs = [rng.standard_normal((int(rng.integers(1, 6)), 24)) for _ in range(5)]
        solo = _server(np.random.default_rng(4), n_layers=2)
        expected = [solo.serve(r).output for r in reqs]
        ids = [server.submit(r) for r in reqs]
        served = server.flush()
        assert [s.request_id for s in served] == ids
        assert server.stats.batches == 1
        assert server.stats.gemms == 2  # one GEMM per layer for the wave
        for s, want in zip(served, expected):
            # same values up to BLAS blocking (the GEMM's row-blocking
            # differs between the stacked wave and a lone request)
            np.testing.assert_allclose(s.output, want, rtol=0, atol=1e-10)

    def test_max_wave_rows_splits_waves(self):
        rng = np.random.default_rng(5)
        server = _server(rng, n_layers=1, max_wave_rows=8)
        for _ in range(5):
            server.submit(rng.standard_normal((4, 24)))
        served = server.flush()
        assert len(served) == 5
        assert server.stats.batches == 3  # 8-row cap -> 2+2+1 requests
        assert {s.batch_id for s in served} == {0, 1, 2}

    def test_oversized_single_request_still_served(self):
        rng = np.random.default_rng(6)
        server = _server(rng, n_layers=1, max_wave_rows=4)
        req = server.serve(rng.standard_normal((9, 24)))
        assert req.rows == 9

    def test_float32_serving_dtype(self):
        rng = np.random.default_rng(7)
        server = _server(rng, dtype=np.float32)
        out = server.serve(rng.standard_normal((3, 24))).output
        assert out.dtype == np.float32

    def test_stats_and_latency(self):
        rng = np.random.default_rng(8)
        server = _server(rng)
        server.submit(rng.standard_normal((2, 24)))
        server.submit(rng.standard_normal((3, 24)))
        server.flush()
        st = server.stats
        assert st.requests == 2
        assert st.rows == 5
        assert st.busy_s > 0
        assert st.rows_per_s() > 0
        assert st.requests_per_s() > 0
        assert st.mean_latency_s() > 0
        assert len(st.latencies_s) == 2

    def test_throughput_is_over_wall_time_not_summed_busy_time(self):
        # two slots busy for the whole flush: their busy times sum to
        # twice the wall time, which must not halve the reported rate
        st = ServerStats(requests=8, rows=64, wall_time_s=0.5, busy_s=1.0,
                         device_busy_s={"a#0": 0.5, "a#1": 0.5})
        assert st.rows_per_s() == 64 / 0.5
        assert st.requests_per_s() == 8 / 0.5
        assert ServerStats(rows=4, busy_s=1.0).rows_per_s() == 0.0

    def test_validation(self):
        rng = np.random.default_rng(9)
        server = _server(rng, n_layers=1, k=24)
        with pytest.raises(ValueError):
            server.submit(rng.standard_normal((2, 7)))  # wrong K
        with pytest.raises(ValueError):
            server.add_layer(_pruned_layer(rng, 7, 7))  # does not chain
        with pytest.raises(TypeError):
            server.add_layer(rng.standard_normal((24, 24)))  # not compiled
        with pytest.raises(ValueError):
            ServerConfig(max_wave_rows=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_queue_rows": -3},
            {"max_wave_rows": 0},
            {"max_wave_rows": -1},
            {"max_wave_rows": 2.5},
            {"watchdog_s": -0.1},
            {"watchdog_s": float("nan")},
            {"watchdog_s": float("inf")},
        ],
    )
    def test_config_numeric_validation(self, kwargs):
        # bad numerics must fail at construction with a clear ValueError,
        # not deep inside the wave execution path
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_config_reports_all_problems_at_once(self):
        # first-wins reporting made callers fix one option per crash; the
        # aggregated error names every bad value
        with pytest.raises(ValueError) as exc_info:
            ServerConfig(max_retries=-1, max_wave_rows=0, watchdog_s=float("nan"))
        message = str(exc_info.value)
        assert "max_retries" in message
        assert "max_wave_rows" in message
        assert "watchdog_s" in message

    def test_config_placement_type_checked(self):
        with pytest.raises(TypeError):
            ServerConfig(placement="replicated")  # must be a Placement

    def test_config_executor_validated(self):
        assert ServerConfig(executor="threads").executor == "threaded"  # alias
        with pytest.raises(KeyError):
            ServerConfig(executor="gpu")
        with pytest.raises(TypeError):
            ServerConfig(executor=42)

    def test_wall_time_and_critical_path_tracked(self):
        rng = np.random.default_rng(30)
        server = _server(rng)
        server.serve(rng.standard_normal((2, 24)))
        st = server.stats
        assert st.wall_time_s > 0
        # inline runs one slot: its busy time is the whole critical path
        assert st.critical_path_s() == st.busy_s > 0
        record = st.record()
        assert record["wall_time_s"] == round(st.wall_time_s, 6)
        assert "measured_speedup" not in record
        assert "parallel_efficiency" not in record
        assert ServerStats().critical_path_s() == 0.0

    def test_latency_fault_floors_served_busy_time(self):
        # serving reports measured host time: a sleep injected inside each
        # timed step shows up in busy_s and in the busiest slot's time
        model, x = _compiled(seed=31, n_layers=2)
        latency = 0.01
        with model.serve(faults=f"latency:duration={latency}") as server:
            res = server.serve(x)
            st = server.stats
            assert res.status == "ok", res
            np.testing.assert_array_equal(res.output, model.run(x))
            assert st.busy_s >= model.n_layers * latency
            assert st.critical_path_s() >= model.n_layers * latency

    def test_config_reports_every_invalid_field_at_once(self):
        with pytest.raises(ValueError) as exc_info:
            ServerConfig(max_wave_rows=0, max_retries=-1, shed_policy="drop_newest")
        message = str(exc_info.value)
        for name in ("max_wave_rows", "max_retries", "shed_policy"):
            assert name in message

    def test_flush_empty_queue(self):
        server = TWModelServer()
        assert server.flush() == []


class TestPlacementServing:
    def _chained(self, rng, n_layers=4, k=24, g=8):
        layers = [_pruned_layer(rng, k, k, g=g) for _ in range(n_layers)]
        return layers

    def _build(self, layers, config):
        server = TWModelServer(config)
        for tw in layers:
            server.add_layer(tw)
        return server

    def test_replicated_round_robins_waves(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(21)
        layers = self._chained(rng, n_layers=2)
        single = self._build(layers, ServerConfig())
        repl = self._build(
            layers,
            ServerConfig(
                max_wave_rows=4,
                placement=Placement("replicated", (V100, V100)),
            ),
        )
        reqs = [rng.standard_normal((4, 24)) for _ in range(4)]
        for r in reqs:
            repl.submit(r)
        served = repl.flush()
        assert repl.stats.batches == 4  # 4-row cap -> one wave per request
        for s, r in zip(served, reqs):
            np.testing.assert_array_equal(s.output, single.serve(r).output)
        # waves alternate across the two replicas of the same device type;
        # slots keep them distinct in the stats
        assert repl.stats.device_gemms["Tesla V100-SXM2#0"] == 4
        assert repl.stats.device_gemms["Tesla V100-SXM2#1"] == 4

    def test_executor_resolved_from_config(self):
        from repro.runtime.executor import InlineExecutor, ThreadedExecutor

        assert isinstance(TWModelServer().executor, InlineExecutor)
        threaded = TWModelServer(ServerConfig(executor="threaded", watchdog_s=3.0))
        assert isinstance(threaded.executor, ThreadedExecutor)
        assert threaded.executor.watchdog_s == 3.0

    def test_replicas_share_warmed_operands(self):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(22)
        layers = self._chained(rng, n_layers=3)
        server = self._build(
            layers,
            ServerConfig(
                placement=Placement("replicated", (V100, T4)),
            ),
        )
        server.warm()
        warmed = [tw.__dict__["_tile_operands"][np.dtype(np.float64).str] for tw in layers]
        for _ in range(2):  # one wave on each replica
            server.serve(rng.standard_normal((2, 24)))
        assert len(server.stats.device_gemms) == 2
        for tw, operands in zip(layers, warmed):
            assert tw.__dict__["_tile_operands"] == {np.dtype(np.float64).str: operands}


class TestExecutorInvariance:
    """The ISSUE 4 contract: ``threaded`` is bit-identical to ``inline``
    for every placement, including the degenerate shapes — and the wave →
    device round-robin is deterministic across executors."""

    def _chained(self, rng, n_layers, k=24, g=8):
        return [_pruned_layer(rng, k, k, g=g) for _ in range(n_layers)]

    def _serve_all(self, layers, reqs, **cfg_kw):
        server = TWModelServer(ServerConfig(**cfg_kw))
        for tw in layers:
            server.add_layer(tw)
        for r in reqs:
            server.submit(r)
        return server, server.flush()

    def _assert_executors_agree(self, layers, reqs, **cfg_kw):
        inline_server, inline_out = self._serve_all(layers, reqs, **cfg_kw)
        threaded_server, threaded_out = self._serve_all(
            layers, reqs, executor="threaded", **cfg_kw
        )
        assert [s.request_id for s in threaded_out] == [
            s.request_id for s in inline_out
        ]
        for got, want in zip(threaded_out, inline_out):
            np.testing.assert_array_equal(got.output, want.output)  # bit-identical
            assert got.batch_id == want.batch_id
        # wave -> device round-robin determinism: identical work placement
        assert threaded_server.stats.device_gemms == inline_server.stats.device_gemms
        assert threaded_server.stats.gemms == inline_server.stats.gemms
        return inline_server, threaded_server

    def test_single_device(self):
        rng = np.random.default_rng(40)
        layers = self._chained(rng, 3)
        reqs = [rng.standard_normal((3, 24)) for _ in range(4)]
        self._assert_executors_agree(layers, reqs)

    def test_single_device_replicated(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(43)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(4)]
        inline_server, _ = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=2,
            placement=Placement("replicated", (V100,)),
        )
        # one replica: every wave lands on slot 0
        assert set(inline_server.stats.device_gemms) == {"Tesla V100-SXM2#0"}

    def test_replicated_wave_round_robin_determinism(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(44)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(6)]
        inline_server, threaded_server = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=2,  # one wave per request -> 6 waves, 3 per slot
            placement=Placement("replicated", (V100, V100)),
        )
        for server in (inline_server, threaded_server):
            assert server.stats.device_gemms == {
                "Tesla V100-SXM2#0": 6, "Tesla V100-SXM2#1": 6,
            }

    def test_replicated_mixed_devices(self):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(41)
        layers = self._chained(rng, 4)
        reqs = [rng.standard_normal((2, 24)) for _ in range(5)]
        inline_server, _ = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=4,  # 3 waves: slots 0, 1, 0
            placement=Placement("replicated", (V100, T4)),
        )
        assert inline_server.stats.device_gemms == {
            "Tesla V100-SXM2#0": 8, "Tesla T4#1": 4,
        }

    def test_replicated_more_devices_than_waves(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(42)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(2)]  # 2 waves, 4 slots
        inline_server, threaded_server = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=2,
            placement=Placement("replicated", (V100,) * 4),
        )
        # only the first two slots ever receive work
        assert set(inline_server.stats.device_gemms) == {
            "Tesla V100-SXM2#0", "Tesla V100-SXM2#1",
        }
        # and the threaded pool spawned no worker for an idle slot
        assert len(threaded_server.executor._threads) == 2

    def test_failed_wave_keeps_threaded_server_usable(self):
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(48)
        layers = self._chained(rng, 1)
        server = TWModelServer(ServerConfig(max_wave_rows=2, executor="threaded"))
        for tw in layers:
            server.add_layer(tw)
        server._pending.append(
            _Pending(rid=99, x=rng.standard_normal((2, 7)), submitted_at=0.0)
        )
        (poison,) = server.flush()
        assert poison.status == "failed"
        assert isinstance(poison.error, ValueError)
        out = server.serve(rng.standard_normal((2, 24)))
        assert out.rows == 2  # the server survives a poisoned flush

    def test_graceful_flush_isolates_poison_request(self):
        """Default flush never raises: the poison request terminates alone
        with status='failed' while its wave-mates are served bit-identical
        to a fault-free run."""
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(49)
        layers = self._chained(rng, 1)
        reqs = [rng.standard_normal((2, 24)) for _ in range(3)]
        server = TWModelServer(
            ServerConfig(max_wave_rows=64, max_retries=1)
        )
        for tw in layers:
            server.add_layer(tw)
        server.submit(reqs[0])
        server.submit(reqs[1])
        server._pending.append(
            _Pending(rid=999, x=rng.standard_normal((2, 7)), submitted_at=0.0)
        )
        server.submit(reqs[2])
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert len(served) == 4  # every request reached a terminal status
        assert by_id[999].status == "failed"
        assert isinstance(by_id[999].error, ValueError)
        assert server.stats.poisoned == 1
        assert server.stats.retries >= 1
        solo = TWModelServer(ServerConfig())
        for tw in layers:
            solo.add_layer(tw)
        for rid, x in zip(sorted(r for r in by_id if r != 999), reqs):
            assert by_id[rid].status == "ok"
            np.testing.assert_array_equal(
                by_id[rid].output, solo.serve(x).output
            )

    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_mid_stream_failure_matches_fault_free_inline(self, executor):
        """ISSUE 6 satellite: mid-stream step failure across executors ×
        all placements — surviving outputs stay bit-identical to a
        fault-free inline run and no request is silently lost."""
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(50)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(4)]
        placements = [
            None,
            Placement("replicated", (V100, T4)),
        ]
        # fault-free inline oracle
        oracle = TWModelServer(ServerConfig())
        for tw in layers:
            oracle.add_layer(tw)
        want = {}
        for x in reqs:
            req = oracle.serve(x)
            want[req.request_id] = req.output
        for placement in placements:
            server = TWModelServer(ServerConfig(
                max_wave_rows=2, executor=executor,
                placement=placement, max_retries=1,
            ))
            for tw in layers:
                server.add_layer(tw)
            rids = [server.submit(x) for x in reqs[:2]]
            # poison injected mid-stream, then more good requests
            server._pending.append(
                _Pending(rid=777, x=rng.standard_normal((2, 7)), submitted_at=0.0)
            )
            rids += [server.submit(x) for x in reqs[2:]]
            served = server.flush()
            by_id = {s.request_id: s for s in served}
            assert set(by_id) == set(rids) | {777}  # none silently lost
            assert by_id[777].status == "failed"
            for rid, want_rid in zip(rids, sorted(want)):
                assert by_id[rid].status == "ok"
                np.testing.assert_array_equal(
                    by_id[rid].output, want[want_rid]
                )

    def test_mid_stream_submissions_keep_round_robin_phase(self):
        """Waves keep their global index across flushes: a threaded server
        flushed twice must place work exactly like an inline one."""
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(46)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(5)]

        outs = {}
        for executor in ("inline", "threaded"):
            server = TWModelServer(ServerConfig(
                executor=executor, max_wave_rows=2,
                placement=Placement("replicated", (V100, V100)),
            ))
            for tw in layers:
                server.add_layer(tw)
            served = []
            for i, r in enumerate(reqs):
                server.submit(r)
                if i % 2 == 1:
                    served.extend(server.flush())
            served.extend(server.flush())
            outs[executor] = (served, dict(server.stats.device_gemms))
        inline_served, inline_gemms = outs["inline"]
        threaded_served, threaded_gemms = outs["threaded"]
        assert threaded_gemms == inline_gemms
        for got, want in zip(threaded_served, inline_served):
            np.testing.assert_array_equal(got.output, want.output)
