"""Tests for the front doors: repro.compile() and repro.tune()."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core import (
    AprioriConfig,
    ArrayModel,
    GradualSchedule,
    ImportanceConfig,
    TEWConfig,
    TWPruner,
)
from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.gpu.device import T4, V100
from repro.kernels.fusion import EpilogueSpec
from repro.kernels.liveness import tighten_chain
from repro.kernels.masked import (
    DTYPE_TOLERANCES,
    tw_gemm,
    tw_gemm_reference,
    tw_gemm_work,
)
from repro.runtime.placement import Placement, resolve_placement


@pytest.fixture()
def stack():
    rng = np.random.default_rng(0)
    # dyadic weights keep every product exactly representable, so the
    # facade-vs-hand-wired comparison is bit-for-bit by contract
    weights = [
        np.round(rng.standard_normal((32, 32)) * 4) / 4 for _ in range(3)
    ]
    x = np.round(rng.standard_normal((5, 32)) * 4) / 4
    return weights, x


def _hand_wired(weights, x, sparsity, g):
    """prune -> from_masks -> liveness stage -> tw_gemm chain."""
    step = tw_prune_step([np.abs(w) for w in weights], sparsity, TWPruneConfig(granularity=g))
    pruned = [
        TiledTWMatrix.from_masks(w, g, step.col_keeps[i], step.row_masks[i])
        for i, w in enumerate(weights)
    ]
    a = x
    for tw, _ in tighten_chain(pruned, [None] * len(pruned)):
        a = tw_gemm(a, tw)
    return a


def _hand_wired_tuned(weights, x, sparsity, g, n_stages, apriori=None):
    """The multi-stage chain tune() must reproduce bit-for-bit."""
    model = ArrayModel(weights)
    pruner = TWPruner(
        TWPruneConfig(granularity=g),
        GradualSchedule(target=sparsity, n_stages=n_stages),
        ImportanceConfig(method="magnitude"),
        apriori,
    )
    result = pruner.prune(model)
    pruned = [
        TiledTWMatrix.from_masks(
            w, g, result.step.col_keeps[i], result.step.row_masks[i]
        )
        for i, w in enumerate(model.weight_matrices())
    ]
    a = x
    for tw, _ in tighten_chain(pruned, [None] * len(pruned)):
        a = tw_gemm(a, tw)
    return a


def _owned(tw):
    """The sorted output columns some tile of ``tw`` owns."""
    return np.sort(np.concatenate([t.col_indices for t in tw.tiles]))


def _untightened(model):
    """``model`` with every layer executing its pruned format and epilogue."""
    return repro.api.CompiledTWModel(
        [
            dataclasses.replace(l, tw=l.pruned_tw, tw_epilogue=l.epilogue)
            for l in model.layers
        ],
        pattern=model.pattern,
        sparsity=model.sparsity,
        granularity=model.granularity,
        engine=model.engine,
        placement=model.placement,
        achieved_sparsity=model.achieved_sparsity,
    )


class TestCompileRun:
    def test_matches_hand_wired_bit_for_bit(self, stack):
        weights, x = stack
        model = repro.compile(weights, pattern="tw", sparsity=0.5, granularity=8)
        np.testing.assert_array_equal(
            model.run(x), _hand_wired(weights, x, 0.5, 8)
        )

    def test_single_matrix_input(self, stack):
        weights, x = stack
        model = repro.compile(weights[0], sparsity=0.5, granularity=8)
        assert model.n_layers == 1
        np.testing.assert_array_equal(
            model.run(x), _hand_wired(weights[:1], x, 0.5, 8)
        )

    def test_nn_module_input(self):
        from repro.models import BertConfig, MiniBERTClassifier

        model = MiniBERTClassifier(
            BertConfig(vocab_size=32, dim=16, n_layers=1, n_heads=2, max_len=8, seed=0),
            n_classes=2,
        )
        compiled = repro.compile(model, sparsity=0.5, granularity=4)
        assert compiled.n_layers == len(model.prunable_weights())
        assert compiled.executable

    def test_pattern_aliases_canonicalised(self, stack):
        weights, _ = stack
        model = repro.compile(weights, pattern="tile_wise", sparsity=0.5, granularity=8)
        assert model.pattern == "tw"
        assert repro.compile(weights, engine="tc", sparsity=0.5,
                             granularity=8).engine == "tensor_core"

    def test_mask_only_patterns_run_as_masked_dense(self, stack):
        weights, x = stack
        model = repro.compile(weights, pattern="ew", sparsity=0.5)
        want = x
        for layer in model.layers:
            want = want @ (layer.dense * layer.mask)
        np.testing.assert_array_equal(model.run(x), want)
        assert model.achieved_sparsity == pytest.approx(0.5, abs=0.02)

    def test_dense_pattern_is_identity_masks(self, stack):
        weights, x = stack
        model = repro.compile(weights, pattern="dense", sparsity=0.0)
        want = x
        for w in weights:
            want = want @ w
        np.testing.assert_array_equal(model.run(x), want)

    def test_chain_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        model = repro.compile(
            [rng.standard_normal((8, 6)), rng.standard_normal((7, 4))],
            sparsity=0.25, granularity=2,
        )
        with pytest.raises(ValueError, match="chain"):
            model.run(rng.standard_normal((2, 8)))

    def test_prune_report(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        rep = model.prune_report()
        assert rep["pattern"] == "tw"
        assert rep["achieved_sparsity"] == pytest.approx(0.5, abs=0.02)
        assert len(rep["layers"]) == 3
        assert all("tiles" in l and "load_imbalance" in l for l in rep["layers"])

    def test_prune_report_separates_pruned_and_executed(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        rows = model.prune_report()["layers"]
        for row, l in zip(rows, model.layers):
            k, n = l.shape
            assert row["sparsity"] == round(l.pruned_tw.sparsity, 6)
            assert row["executed_density"] == round(
                sum(t.kept_k * t.kept_n for t in l.tw.tiles) / (k * n), 6
            )
            assert row["executed_density"] <= 1 - row["sparsity"] + 1e-9
            assert row["exec_shape"] == list(l.tw.shape)
        # the first layer reads the model input, which is fully live
        assert rows[0]["executed_density"] == round(1 - rows[0]["sparsity"], 6)
        assert any(
            r["executed_density"] < round(1 - r["sparsity"], 6) for r in rows[1:]
        )


class TestLivenessStage:
    """compile() executes tightened formats and describes the pruned model."""

    def test_execution_format_keeps_every_tile_in_order(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        layers = model.layers
        for i, l in enumerate(layers):
            # finite weights, no epilogue: each edge keeps the owned columns
            keep_k = _owned(layers[i - 1].pruned_tw) if i else np.arange(l.shape[0])
            keep_n = _owned(l.pruned_tw) if i < len(layers) - 1 else np.arange(l.shape[1])
            assert l.tw.shape == (keep_k.size, keep_n.size)
            assert l.tw.n_tiles == l.pruned_tw.n_tiles
            for t, p in zip(l.tw.tiles, l.pruned_tw.tiles):
                np.testing.assert_array_equal(keep_n[t.col_indices], p.col_indices)
                assert not np.any(t.mask_k & ~p.mask_k[keep_k])
                assert t.scale == p.scale
            assert tw_gemm_work(l.tw)[1] <= tw_gemm_work(l.pruned_tw)[1]
        # the first layer reads the model input: compacted, not tightened
        assert tw_gemm_work(layers[0].tw) == tw_gemm_work(layers[0].pruned_tw)

    def test_pruned_description_unchanged(self, stack):
        weights, x = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        for l in model.layers:
            np.testing.assert_array_equal(l.mask, l.pruned_tw.element_mask())
            assert l.sparsity == l.pruned_tw.sparsity
        dense = x
        for l in model.layers:
            dense = dense @ l.masked_dense()
        # dyadic data: the tightened chain is exact against the pruned model
        np.testing.assert_array_equal(model.run(x), dense)
        want = x
        for l in model.layers:
            want = tw_gemm_reference(want, l.pruned_tw)
        np.testing.assert_array_equal(model.run(x), want)

    def test_price_reads_the_pruned_format(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        untight = _untightened(model)
        for dtype in (None, "float16", "float32"):
            assert model.price(m=512, dtype=dtype) == untight.price(m=512, dtype=dtype)
        assert model.achieved_sparsity == untight.achieved_sparsity
        for l, u in zip(model.layers, untight.layers):
            assert l.plans.keys() == u.plans.keys()


class TestLiveCoordinates:
    """Each execution format runs in live coordinates: a tightened edge
    shrinks to the columns the chain can see; the rest stays full."""

    @staticmethod
    def _square(seed=5, n_layers=3, width=32):
        rng = np.random.default_rng(seed)
        return [np.round(rng.standard_normal((width, width)) * 4) / 4
                for _ in range(n_layers)]

    def test_plain_chain_shrinks_every_inner_edge(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        first, mid, last = model.layers
        assert first.tw.shape == (32, first.pruned_tw.kept_columns)
        assert mid.tw.shape == (first.pruned_tw.kept_columns, mid.pruned_tw.kept_columns)
        assert last.tw.shape == (mid.pruned_tw.kept_columns, 32)
        assert all(l.tw.shape != l.shape for l in model.layers)
        # the pruned description keeps the model's shapes
        assert [l.shape for l in model.layers] == [w.shape for w in weights]
        assert [l.pruned_tw.shape for l in model.layers] == [w.shape for w in weights]

    def test_layernorm_keeps_its_n_and_the_next_k(self):
        model = repro.compile(
            self._square(), sparsity=0.5, granularity=8,
            epilogue=[None, "bias_layernorm", None],
        )
        first, norm, last = model.layers
        assert first.tw.shape == (32, first.pruned_tw.kept_columns)
        assert norm.tw.shape == (first.pruned_tw.kept_columns, 32)
        assert last.tw is last.pruned_tw

    def test_residual_layer_keeps_its_k_and_n(self):
        model = repro.compile(
            self._square(), sparsity=0.5, granularity=8,
            epilogue=[None, "dropout_residual_layernorm", None],
        )
        first, res, last = model.layers
        assert first.tw is first.pruned_tw
        assert res.tw.shape == (32, 32)
        assert last.tw is last.pruned_tw
        assert res.tw_epilogue is res.epilogue

    def test_gelu_bias_is_sliced_to_the_live_columns(self):
        rng = np.random.default_rng(6)
        bias = rng.standard_normal(32)
        spec = EpilogueSpec("bias_gelu", bias=bias)
        model = repro.compile(
            self._square(), sparsity=0.5, granularity=8, epilogue=[spec, None, None],
        )
        first = model.layers[0]
        live = _owned(first.pruned_tw)
        assert first.tw.shape == (32, live.size)
        assert first.epilogue is spec
        np.testing.assert_array_equal(first.tw_epilogue.bias, bias[live])
        assert model.layers[1].tw_epilogue is None

    def test_execution_format_and_epilogue_change_together(self):
        spec = EpilogueSpec("bias_gelu", bias=np.random.default_rng(7).standard_normal(32))
        model = repro.compile(
            self._square(), sparsity=0.5, granularity=8, epilogue=[spec, None, None],
        )
        first = model.layers[0]
        with pytest.raises(ValueError, match="tw_epilogue.bias has shape"):
            dataclasses.replace(first, tw=first.pruned_tw)
        with pytest.raises(ValueError, match="tw_epilogue.bias has shape"):
            dataclasses.replace(first, tw_epilogue=spec)
        # swapping both runs the untightened model
        x = np.random.default_rng(8).standard_normal((4, 32))
        np.testing.assert_allclose(_untightened(model).run(x), model.run(x), rtol=1e-12)

    def test_tew_session_is_not_compacted(self, stack):
        weights, _ = stack
        result = repro.tune(
            weights, pattern="tew", sparsity=0.5, granularity=8,
            n_stages=2, importance="magnitude", tew=0.05,
        )
        for l in result.compiled.layers:
            assert l.tw is l.pruned_tw
            assert l.tw.shape == l.shape

    def test_serve_matches_run_on_every_executor_and_placement(self):
        weights, names = repro.api.demo_layer_stack(
            "bert", scale=16, blocks=1, seed=7, dtype=np.float32
        )
        bias = np.random.default_rng(8).standard_normal(weights[4].shape[1])
        epilogues = [None] * 6
        epilogues[4] = EpilogueSpec("bias_gelu", bias=bias.astype(np.float32))
        model = repro.compile(
            weights, sparsity=0.75, granularity=8, dtype=np.float32,
            epilogue=epilogues, names=names,
        )
        assert all(l.tw.shape != l.shape for l in model.layers)
        x = np.random.default_rng(9).standard_normal((6, weights[0].shape[0]))
        reqs = [x[:3], x[3:]]
        for executor in ("inline", "threaded"):
            for placement in (Placement("single", (V100,)),
                              Placement("replicated", (V100, V100))):
                with model.serve(executor=executor, placement=placement,
                                 max_wave_rows=3) as server:
                    for step, l in zip(server._layers, model.layers):
                        assert step.tw is l.tw and step.epilogue is l.tw_epilogue
                    for r in reqs:
                        server.submit(r)
                    served = server.flush()
                for got, r in zip(served, reqs):
                    assert got.status == "ok", got
                    np.testing.assert_array_equal(got.output, model.run(r))

    def test_load_then_run_matches_compiled_run(self, tmp_path):
        rng = np.random.default_rng(10)
        spec = EpilogueSpec("bias_gelu", bias=rng.standard_normal(32))
        model = repro.compile(
            self._square(), sparsity=0.5, granularity=8, epilogue=[spec, None, None],
        )
        loaded = repro.load(model.save(tmp_path / "m.npz"))
        for got, want in zip(loaded.layers, model.layers):
            assert got.tw.shape == want.tw.shape
            assert got.shape == want.shape
        np.testing.assert_array_equal(
            loaded.layers[0].tw_epilogue.bias, model.layers[0].tw_epilogue.bias
        )
        np.testing.assert_array_equal(loaded.layers[0].epilogue.bias, spec.bias)
        x = rng.standard_normal((5, 32))
        np.testing.assert_array_equal(loaded.run(x), model.run(x))


class TestRegistryErrors:
    def test_unknown_pattern_lists_available(self, stack):
        weights, _ = stack
        with pytest.raises(KeyError, match="unknown pattern 'banana'.*bw.*tw"):
            repro.compile(weights, pattern="banana")

    def test_unknown_engine_lists_available(self, stack):
        weights, _ = stack
        with pytest.raises(KeyError, match="unknown engine 'tpu'.*cuda_core.*tensor_core"):
            repro.compile(weights, engine="tpu")

    def test_unknown_placement_kind(self):
        with pytest.raises(KeyError, match="unknown placement 'diagonal'"):
            Placement("diagonal", (V100,))

    def test_unknown_model_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            repro.compile("resnet")

    def test_tew_weights_compile_explains(self, stack):
        weights, _ = stack
        with pytest.raises(ValueError, match="price-only"):
            repro.compile(weights, pattern="tew")


class TestSaveLoad:
    def test_loaded_mask_and_run_match_compiled(self, tmp_path):
        rng = np.random.default_rng(11)
        weights = [rng.standard_normal((64, 64)) for _ in range(2)]
        model = repro.compile(
            weights, sparsity=0.5, granularity=16,
            epilogue=[EpilogueSpec("bias_gelu", bias=rng.standard_normal(64)), None],
        )
        loaded = repro.load(model.save(tmp_path / "m.npz"))
        for got, want in zip(loaded.layers, model.layers):
            np.testing.assert_array_equal(got.mask, want.mask)
            np.testing.assert_array_equal(got.masked_dense(), want.masked_dense())
        assert loaded.layers[1].tw.out_bias is not None
        x = rng.standard_normal((5, 64))
        np.testing.assert_array_equal(loaded.run(x), model.run(x))

    def test_save_writes_the_pruned_format(self, stack, tmp_path):
        weights, _ = stack
        model = repro.compile(
            weights, sparsity=0.5, granularity=8, epilogue=["bias_gelu", None, None]
        )
        a = np.load(model.save(tmp_path / "a.npz"))
        b = np.load(_untightened(model).save(tmp_path / "b.npz"))
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_round_trip_bit_identical(self, stack, tmp_path):
        weights, x = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        want = _hand_wired(weights, x, 0.5, 8)
        path = model.save(tmp_path / "m.npz")
        loaded = repro.load(path)
        np.testing.assert_array_equal(loaded.run(x), want)
        assert loaded.pattern == model.pattern
        assert loaded.granularity == model.granularity
        assert loaded.achieved_sparsity == model.achieved_sparsity
        assert loaded.placement == model.placement
        assert [l.name for l in loaded.layers] == [l.name for l in model.layers]

    def test_round_trip_preserves_placement_devices(self, stack, tmp_path):
        weights, x = stack
        model = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, T4)),
        )
        loaded = repro.load(model.save(tmp_path / "m.npz"))
        assert loaded.placement.kind == "replicated"
        assert [d.name for d in loaded.placement.devices] == [V100.name, T4.name]
        np.testing.assert_array_equal(loaded.run(x), model.run(x))

    def test_load_rejects_removed_placement_kind(self, stack, tmp_path):
        import types

        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        # an artifact written when layer_sharded was still a placement kind
        model.placement = types.SimpleNamespace(
            kind="layer_sharded", devices=model.placement.devices
        )
        path = model.save(tmp_path / "m.npz")
        with pytest.raises(KeyError, match="'layer_sharded'.*available: replicated, single"):
            repro.load(path)

    def test_loaded_model_serves(self, stack, tmp_path):
        weights, x = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        loaded = repro.load(model.save(tmp_path / "m.npz"))
        server = loaded.serve()
        np.testing.assert_array_equal(server.serve(x).output, model.run(x))

    def test_mask_only_save_rejected(self, stack, tmp_path):
        weights, _ = stack
        model = repro.compile(weights, pattern="ew", sparsity=0.5)
        with pytest.raises(ValueError, match="TW"):
            model.save(tmp_path / "m.npz")


class TestPlacement:
    def test_layer_sharded_is_rejected(self):
        # a wave runs on one slot: no placement splits its layers
        with pytest.raises(KeyError, match="'layer_sharded'.*available: replicated, single"):
            Placement("layer_sharded", (V100, T4))

    def test_replicated_matches_single(self, stack):
        weights, x = stack
        single = repro.compile(weights, sparsity=0.5, granularity=8)
        repl = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, V100)),
        )
        np.testing.assert_array_equal(repl.run(x), single.run(x))

    def test_slot_for_wave_round_robins(self):
        assert [Placement("replicated", (V100, T4)).slot_for_wave(w) for w in range(5)] == [
            0, 1, 0, 1, 0,
        ]
        assert [Placement("single", (V100,)).slot_for_wave(w) for w in range(3)] == [0, 0, 0]

    def test_plans_cover_every_device(self, stack):
        weights, _ = stack
        single = repro.compile(weights, sparsity=0.5, granularity=8)
        assert all(list(l.plans) == [V100] for l in single.layers)
        repl = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, T4)),
        )
        assert all(list(l.plans) == [V100, T4] for l in repl.layers)

    def test_single_requires_one_device(self):
        with pytest.raises(ValueError, match="exactly one device"):
            Placement("single", (V100, T4))

    def test_resolve_placement_forms(self):
        assert resolve_placement(None).kind == "single"
        assert resolve_placement("replicated", [V100, T4]).n_devices == 2
        assert resolve_placement(None, [V100, T4]).kind == "replicated"
        with pytest.raises(TypeError):
            resolve_placement(42)

    def test_serve_preseeds_caches(self, stack):
        weights, x = stack
        model = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, T4)),
        )
        server = model.serve()
        out = server.serve(x).output
        # the compiled formats are served: zero misses
        assert server.stats.format_misses == 0
        np.testing.assert_array_equal(out, model.run(x))

    def test_serve_executor_knobs(self, stack):
        from repro.runtime.executor import ThreadedExecutor
        from repro.runtime.server import ServerConfig

        weights, x = stack
        model = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, T4)),
        )
        server = model.serve(executor="threaded", watchdog_s=5.0)
        assert isinstance(server.executor, ThreadedExecutor)
        assert server.executor.watchdog_s == 5.0
        # the threaded path serves the compiled formats and stays bit-identical
        out = server.serve(x).output
        np.testing.assert_array_equal(out, model.run(x))
        # knobs also override an explicit config
        cfg = ServerConfig(max_wave_rows=64, placement=model.placement)
        server2 = model.serve(cfg, executor="threaded")
        assert server2.config.executor == "threaded"
        assert server2.config.max_wave_rows == 64

    def test_serve_rejects_unknown_knob(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        with pytest.raises(TypeError, match="no_such_knob"):
            model.serve(no_such_knob=1)

    def test_serve_async_caps_admitted_waves(self, stack):
        import asyncio

        weights, x = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        reqs = [x[i : i + 2] for i in (0, 1, 2, 3, 0, 2)]

        async def go():
            async with model.serve_async(max_wave_rows=4) as loop:
                futures = [loop.submit_nowait(r) for r in reqs]
                return await asyncio.gather(*futures), loop.stats_record()

        served, record = asyncio.run(go())
        wave_rows: dict[int, int] = {}
        for s in served:
            wave_rows[s.batch_id] = wave_rows.get(s.batch_id, 0) + s.rows
        assert sorted(wave_rows.values()) == [4, 4, 4]  # two requests per wave
        assert record["waves"]["max_wave_rows"] == 4
        for s, r in zip(served, reqs):
            np.testing.assert_array_equal(s.output, model.run(r))


class TestPrice:
    def test_weight_stack_pricing_uses_real_geometry(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        price = model.price(m=256)
        assert price.sparse_gemm_us > 0
        assert price.dense_gemm_us > 0
        assert price.gemm_speedup == pytest.approx(
            price.dense_gemm_us / price.sparse_gemm_us
        )
        assert price.end_to_end is None

    def test_named_model_pricing_matches_experiments(self):
        from repro.experiments.latency import gemm_speedup

        price = repro.compile("bert", sparsity=0.75).price()
        assert price.end_to_end is not None
        assert price.gemm_speedup == pytest.approx(
            gemm_speedup("bert", "tw", 0.75), rel=1e-12
        )

    def test_named_model_cannot_run(self):
        model = repro.compile("bert", sparsity=0.75)
        with pytest.raises(ValueError, match="shapes only"):
            model.run(np.zeros((1, 768)))
        with pytest.raises(ValueError, match="shapes only"):
            model.serve()

    def test_bad_m_rejected(self, stack):
        weights, _ = stack
        model = repro.compile(weights, sparsity=0.5, granularity=8)
        with pytest.raises(ValueError, match="m must be positive"):
            model.price(m=0)


class TestDemoStack:
    @pytest.mark.parametrize("name", ["bert", "vgg", "nmt"])
    def test_stacks_chain(self, name):
        from repro.api import demo_layer_stack

        weights, names = demo_layer_stack(name, scale=16, blocks=1)
        assert len(weights) == len(names)
        for prev, nxt in zip(weights, weights[1:]):
            assert prev.shape[1] == nxt.shape[0]

    def test_bert_stack_serves_replicated(self):
        from repro.api import demo_layer_stack

        weights, names = demo_layer_stack("bert", scale=32, blocks=1, seed=3)
        model = repro.compile(
            weights, sparsity=0.5, granularity=4, names=names,
            placement=Placement("replicated", (V100, V100, T4)),
        )
        server = model.serve()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, weights[0].shape[0]))
        np.testing.assert_array_equal(server.serve(x).output, model.run(x))


class TestTune:
    """The training-time front door: repro.tune() → TuneResult."""

    def test_matches_hand_wired_chain_bit_for_bit(self, stack):
        weights, x = stack
        result = repro.tune(
            weights, pattern="tw", sparsity=0.5, granularity=8,
            schedule="gradual", n_stages=3, importance="magnitude",
            apriori=False,
        )
        want = _hand_wired_tuned(weights, x, 0.5, 8, 3)
        np.testing.assert_array_equal(result.compiled.run(x), want)
        np.testing.assert_array_equal(result.run(x), want)

    def test_matches_hand_wired_with_apriori(self, stack):
        weights, x = stack
        result = repro.tune(
            weights, sparsity=0.5, granularity=8, n_stages=2,
            importance="magnitude", apriori=True,
        )
        want = _hand_wired_tuned(weights, x, 0.5, 8, 2, apriori=AprioriConfig())
        np.testing.assert_array_equal(result.compiled.run(x), want)

    def test_oneshot_schedule_matches_compile(self, stack):
        # a single gradual stage at the target with magnitude scores and no
        # apriori is exactly what compile() runs one-shot
        weights, x = stack
        tuned = repro.tune(
            weights, sparsity=0.5, granularity=8, schedule="oneshot",
            importance="magnitude", apriori=False,
        )
        compiled = repro.compile(weights, sparsity=0.5, granularity=8)
        np.testing.assert_array_equal(tuned.compiled.run(x), compiled.run(x))

    def test_trajectory_records_every_stage(self, stack):
        weights, _ = stack
        result = repro.tune(
            weights, sparsity=0.6, granularity=8, n_stages=4,
            importance="magnitude", apriori=False,
        )
        assert result.n_stages == len(result.schedule.stages())
        traj = result.trajectory()
        assert [t["stage"] for t in traj] == list(range(len(traj)))
        assert all(t["kind"] == "prune" for t in traj)
        achieved = [t["achieved_sparsity"] for t in traj]
        assert all(b >= a - 1e-9 for a, b in zip(achieved, achieved[1:]))
        assert traj[-1]["target_sparsity"] == pytest.approx(0.6)
        assert result.achieved_sparsity == pytest.approx(0.6, abs=0.03)
        assert result.metric is None  # no evaluate= callback

    def test_tew_overlay_composes(self, stack):
        weights, x = stack
        result = repro.tune(
            weights, pattern="tew", sparsity=0.5, granularity=8,
            n_stages=2, importance="magnitude", tew=0.05,
        )
        assert result.pattern == "tew"
        assert result.history[-1].kind == "overlay"
        # overlay restores down from the overshoot back to the target
        assert result.achieved_sparsity == pytest.approx(0.5, abs=0.02)
        assert result.tew is not None and result.residuals is not None
        for twm, ewm in zip(result.tew.tw_masks, result.tew.ew_masks):
            assert not (twm & ewm).any()
        # the two-pass decomposition equals the union masked-dense forward
        # exactly on dyadic data (paper §IV-A linearity)
        want = x
        for layer, union in zip(result.compiled.layers, result.masks):
            want = want @ (layer.dense * union)
        np.testing.assert_array_equal(result.run(x), want)

    @pytest.mark.parametrize("dtype", [np.float32, "int8"])
    def test_tew_run_takes_input_like_compiled_run(self, stack, dtype):
        weights, x = stack
        result = repro.tune(
            weights, pattern="tew", sparsity=0.5, granularity=8,
            n_stages=1, importance="magnitude", tew=0.05, dtype=dtype,
        )
        got = result.run(x)
        assert got.dtype == result.compiled.run(x).dtype
        if dtype is np.float32:
            # the float64 two-pass product on the stored float32 weights
            want = x
            for layer, r in zip(result.compiled.layers, result.residuals):
                want = want @ layer.tw.to_dense().astype(np.float64) + want @ r.to_dense()
            np.testing.assert_allclose(
                got, want.astype(np.float32), **DTYPE_TOLERANCES["float32"]
            )
        with pytest.raises(ValueError, match="input K=31 != model K=32"):
            result.run(x[:, :31])

    def test_tew_sugar_defaults_delta(self, stack):
        weights, _ = stack
        result = repro.tune(
            weights, pattern="tew", sparsity=0.5, granularity=8,
            n_stages=1, importance="magnitude",
        )
        assert result.tew.ew_fraction == pytest.approx(
            TEWConfig().delta, abs=0.01
        )

    def test_tew_refuses_mask_only_patterns(self, stack):
        weights, _ = stack
        with pytest.raises(ValueError, match="tw pattern only"):
            repro.tune(weights, pattern="ew", tew=0.05)

    def test_baseline_patterns_run_shared_stage_loop(self, stack):
        weights, x = stack
        result = repro.tune(
            weights, pattern="ew", sparsity=0.5, n_stages=2,
            importance="magnitude",
        )
        assert result.pattern == "ew"
        assert result.achieved_sparsity == pytest.approx(0.5, abs=0.02)
        want = x
        for layer in result.compiled.layers:
            want = want @ (layer.dense * layer.mask)
        np.testing.assert_array_equal(result.run(x), want)

    def test_dense_pattern_rejected(self, stack):
        weights, _ = stack
        with pytest.raises(ValueError, match="dense baseline"):
            repro.tune(weights, pattern="dense")

    def test_explicit_schedule_instance_wins(self, stack):
        weights, _ = stack
        sched = GradualSchedule(target=0.4, n_stages=2, law="linear")
        result = repro.tune(
            weights, sparsity=0.9, schedule=sched, granularity=8,
            importance="magnitude",
        )
        assert result.sparsity == 0.4
        assert result.schedule is sched

    def test_save_load_round_trip(self, stack, tmp_path):
        weights, x = stack
        result = repro.tune(
            weights, sparsity=0.5, granularity=8, n_stages=2,
            importance="magnitude",
        )
        loaded = repro.load(result.save(tmp_path / "tuned.npz"))
        np.testing.assert_array_equal(loaded.run(x), result.compiled.run(x))

    def test_tew_save_refused(self, stack, tmp_path):
        weights, _ = stack
        result = repro.tune(
            weights, pattern="tew", sparsity=0.5, granularity=8,
            n_stages=1, importance="magnitude",
        )
        with pytest.raises(ValueError, match="residual"):
            result.save(tmp_path / "tuned.npz")

    def test_tuned_model_serves(self, stack):
        weights, x = stack
        result = repro.tune(
            weights, sparsity=0.5, granularity=8, n_stages=2,
            importance="magnitude",
        )
        server = result.compiled.serve()
        np.testing.assert_array_equal(
            server.serve(x).output, result.compiled.run(x)
        )


class TestTuneFineTuning:
    """The train=/data= contract: no silently-dropped fine-tuning."""

    @pytest.fixture()
    def tiny_task(self):
        from repro.models import BertConfig, MiniBERTClassifier
        from repro.nn.datasets import SentencePairDataset

        ds = SentencePairDataset(vocab_size=32, seq_len=8, seed=0)
        split = ds.sample(32, 1)
        model = MiniBERTClassifier(
            BertConfig(vocab_size=32, dim=16, n_layers=1, n_heads=2,
                       max_len=16, seed=0),
            n_classes=3,
        )
        return model, split

    def test_raw_arrays_reject_train(self, stack):
        weights, _ = stack
        from repro.nn.trainer import TrainConfig

        with pytest.raises(ValueError, match="cannot be fine-tuned"):
            repro.tune(weights, train=TrainConfig(epochs=1))

    def test_array_model_rejects_train(self, stack):
        weights, _ = stack
        from repro.nn.trainer import TrainConfig

        with pytest.raises(ValueError, match="documented no-op"):
            repro.tune(ArrayModel(weights), train=TrainConfig(epochs=1))

    def test_array_model_fine_tune_is_noop(self, stack):
        weights, _ = stack
        model = ArrayModel(weights)
        assert model.supports_fine_tuning is False
        before = [w.copy() for w in model.weight_matrices()]
        model.fine_tune()
        for b, w in zip(before, model.weight_matrices()):
            np.testing.assert_array_equal(b, w)

    def test_module_needs_data(self, tiny_task):
        model, _ = tiny_task
        with pytest.raises(ValueError, match="data="):
            repro.tune(model, sparsity=0.5, granularity=4)

    def test_module_with_data_tunes(self, tiny_task):
        model, split = tiny_task
        result = repro.tune(
            model, data=split, sparsity=0.5, granularity=4, n_stages=2,
        )
        assert result.achieved_sparsity == pytest.approx(0.5, abs=0.05)
        # masks really constrained the module's live weights
        for w, m in zip(model.prunable_weights(), result.masks):
            assert np.all(w.data[~m] == 0.0)

    def test_adapter_train_override_and_zero_epochs(self, tiny_task):
        from repro.nn.trainer import TrainConfig, TrainedModelAdapter

        model, split = tiny_task
        adapter = TrainedModelAdapter(
            model.prunable_weights(), model.loss, split
        )
        assert adapter.supports_fine_tuning is True
        zero = TrainConfig(epochs=0)
        before = [w.copy() for w in adapter.weight_matrices()]
        result = repro.tune(
            adapter, sparsity=0.5, granularity=4, n_stages=1, train=zero,
        )
        assert adapter.finetune_config is zero
        # epochs=0 is well-defined: prune-only stages, no weight updates
        # beyond masking
        for b, w, m in zip(before, adapter.weight_matrices(), result.masks):
            np.testing.assert_array_equal(b * m, w)

    def test_adapter_rejects_data_kwarg(self, tiny_task):
        model, split = tiny_task
        from repro.nn.trainer import TrainedModelAdapter

        adapter = TrainedModelAdapter(
            model.prunable_weights(), model.loss, split
        )
        with pytest.raises(ValueError, match="data="):
            repro.tune(adapter, data=split)

    def test_tew_residuals_track_fine_tuned_values(self, tiny_task):
        from repro.nn.trainer import TrainConfig, TrainedModelAdapter

        model, split = tiny_task
        adapter = TrainedModelAdapter(
            model.prunable_weights(), model.loss, split,
            TrainConfig(epochs=1, batch_size=16),
        )
        result = repro.tune(
            adapter, pattern="tew", sparsity=0.5, granularity=4,
            n_stages=1, tew=0.1,
        )
        # the overlay solution's execution payload must reflect the
        # *final* trained values (fine-tuning moved the restored weights),
        # staying consistent with result.residuals and result.run()
        for res, tew_res, w, ew in zip(
            result.residuals, result.tew.residuals,
            adapter.weight_matrices(), result.tew.ew_masks,
        ):
            np.testing.assert_array_equal(
                res.to_dense(), np.where(ew, w, 0.0)
            )
            np.testing.assert_array_equal(res.to_dense(), tew_res.to_dense())

    def test_evaluate_callback_fills_trajectory(self, tiny_task):
        model, split = tiny_task
        calls = []

        def metric():
            calls.append(1)
            return float(len(calls))

        result = repro.tune(
            model, data=split, sparsity=0.5, granularity=4, n_stages=2,
            evaluate=metric,
        )
        assert len(calls) == result.n_stages
        assert result.metric == float(len(calls))
        assert [t["metric"] for t in result.trajectory()] == [1.0, 2.0]
