"""Tests for the front doors: repro.compile() and repro.tune()."""

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
from repro.kernels.masked import tw_gemm
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
    step = tw_prune_step([np.abs(w) for w in weights], sparsity, TWPruneConfig(granularity=g))
    a = x
    for i, w in enumerate(weights):
        tw = TiledTWMatrix.from_masks(w, g, step.col_keeps[i], step.row_masks[i])
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
    a = x
    for i, w in enumerate(model.weight_matrices()):
        tw = TiledTWMatrix.from_masks(
            w, g, result.step.col_keeps[i], result.step.row_masks[i]
        )
        a = tw_gemm(a, tw)
    return a


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
            placement=Placement("layer_sharded", (V100, T4)),
        )
        loaded = repro.load(model.save(tmp_path / "m.npz"))
        assert loaded.placement.kind == "layer_sharded"
        assert [d.name for d in loaded.placement.devices] == [V100.name, T4.name]
        np.testing.assert_array_equal(loaded.run(x), model.run(x))

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
    def test_layer_sharded_matches_single(self, stack):
        weights, x = stack
        single = repro.compile(weights, sparsity=0.5, granularity=8)
        sharded = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("layer_sharded", (V100, T4)),
        )
        np.testing.assert_array_equal(sharded.run(x), single.run(x))

    def test_replicated_matches_single(self, stack):
        weights, x = stack
        single = repro.compile(weights, sparsity=0.5, granularity=8)
        repl = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("replicated", (V100, V100)),
        )
        np.testing.assert_array_equal(repl.run(x), single.run(x))

    def test_shard_layout_contiguous(self, stack):
        weights, _ = stack
        model = repro.compile(
            weights, sparsity=0.5, granularity=8,
            placement=Placement("layer_sharded", (V100, T4)),
        )
        layout = model.shard_layout()
        assert layout == [f"{V100.name}#0", f"{V100.name}#0", f"{T4.name}#1"]

    def test_layer_shards_balanced(self):
        p = Placement("layer_sharded", (V100, T4))
        assert p.layer_shards(4) == [0, 0, 1, 1]
        assert p.layer_shards(3) == [0, 0, 1]
        assert p.layer_shards(1) == [0]
        assert p.layer_shards(0) == []

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
            placement=Placement("layer_sharded", (V100, T4)),
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
            placement=Placement("layer_sharded", (V100, T4)),
        )
        server = model.serve(executor="threaded", workers=2)
        assert isinstance(server.executor, ThreadedExecutor)
        assert server.executor.workers == 2
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

    def test_bert_stack_serves_sharded(self):
        from repro.api import demo_layer_stack

        weights, names = demo_layer_stack("bert", scale=32, blocks=1, seed=3)
        model = repro.compile(
            weights, sparsity=0.5, granularity=4, names=names,
            placement=Placement("layer_sharded", (V100, V100, T4)),
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
