"""Tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def weight_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.npy"
    np.save(path, rng.standard_normal((128, 128)))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prune_defaults(self, weight_file):
        args = build_parser().parse_args(["prune", str(weight_file)])
        assert args.sparsity == 0.75
        assert args.granularity == 128

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize"])


class TestPrune:
    def test_prints_stats(self, weight_file, capsys):
        rc = main(["prune", str(weight_file), "--sparsity", "0.5", "-G", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "achieved sparsity" in out
        assert "tiles" in out

    def test_writes_output(self, weight_file, tmp_path, capsys):
        out_path = tmp_path / "pruned.npz"
        rc = main([
            "prune", str(weight_file), "--sparsity", "0.75",
            "-G", "32", "--out", str(out_path),
        ])
        assert rc == 0
        import repro

        model = repro.load(out_path)
        assert model.n_layers == 1
        assert model.achieved_sparsity == pytest.approx(0.75, abs=0.03)
        assert model.layers[0].tw.sparsity == pytest.approx(0.75, abs=0.03)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["prune", str(tmp_path / "nope.npy")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err

    def test_rejects_1d(self, tmp_path, capsys):
        path = tmp_path / "v.npy"
        np.save(path, np.ones(8))
        rc = main(["prune", str(path)])
        assert rc == 2

    def test_rejects_bad_sparsity(self, weight_file, capsys):
        rc = main(["prune", str(weight_file), "--sparsity", "1.5"])
        assert rc == 2

    def test_bad_granularity_is_an_error_line(self, weight_file, capsys):
        rc = main(["prune", str(weight_file), "--granularity", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "granularity" in err
        assert "Traceback" not in err


class TestTune:
    # small task budgets: the dense training runs inside the command
    _FAST = ["tune", "mnli", "--train-samples", "48", "--stages", "1",
             "--sparsity", "0.5", "-G", "8"]

    def test_tasks_mirror_experiments(self):
        from repro.cli import _TASKS
        from repro.experiments.accuracy import TASKS

        assert _TASKS == TASKS

    def test_prints_trajectory(self, capsys):
        rc = main(self._FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "target" in out and "achieved" in out
        assert "dense accuracy" in out

    def test_json_trajectory(self, capsys):
        import json

        rc = main(self._FAST + ["--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pattern"] == "tw"
        assert len(record["trajectory"]) == 1
        stage = record["trajectory"][0]
        assert stage["kind"] == "prune"
        assert stage["achieved_sparsity"] == pytest.approx(0.5, abs=0.03)
        assert record["final_metric"] is not None

    def test_tew_adds_overlay_stage(self, capsys):
        import json

        rc = main(self._FAST + ["--pattern", "tew", "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pattern"] == "tew"
        assert record["trajectory"][-1]["kind"] == "overlay"

    def test_out_saves_loadable_model(self, tmp_path, capsys):
        out = tmp_path / "tuned.npz"
        rc = main(self._FAST + ["--out", str(out)])
        assert rc == 0
        import repro

        model = repro.load(out)
        assert model.achieved_sparsity == pytest.approx(0.5, abs=0.03)

    def test_tew_out_rejected(self, tmp_path, capsys):
        rc = main(self._FAST + ["--pattern", "tew",
                                "--out", str(tmp_path / "t.npz")])
        assert rc == 2
        assert "residual" in capsys.readouterr().err

    def test_zero_finetune_epochs_allowed(self, capsys):
        rc = main(self._FAST + ["--finetune-epochs", "0"])
        assert rc == 0

    def test_bad_sparsity(self, capsys):
        rc = main(["tune", "mnli", "--sparsity", "1.0"])
        assert rc == 2

    def test_bad_stages(self, capsys):
        rc = main(["tune", "mnli", "--stages", "0"])
        assert rc == 2

    def test_bad_granularity_rejected_before_training(self, capsys):
        rc = main(["tune", "mnli", "-G", "0"])
        assert rc == 2
        assert "granularity" in capsys.readouterr().err

    def test_oneshot_schedule_runs(self, capsys):
        import json

        rc = main(["tune", "mnli", "--train-samples", "48", "--sparsity",
                   "0.5", "-G", "8", "--schedule", "oneshot", "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["trajectory"]) == 1

    def test_oneshot_with_stages_conflict(self, capsys):
        rc = main(["tune", "mnli", "--schedule", "oneshot", "--stages", "3"])
        assert rc == 2
        assert "single-stage" in capsys.readouterr().err

    def test_bad_schedule_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["tune", "mnli", "--schedule", "warmup"])

    def test_bad_importance_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["tune", "mnli", "--importance", "entropy"])


class TestLatency:
    def test_tw_latency(self, capsys):
        rc = main(["latency", "bert", "--pattern", "tw", "--sparsity", "0.75"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GEMM-only speedup" in out
        assert "end-to-end latency" in out

    def test_dense(self, capsys):
        rc = main(["latency", "vgg", "--pattern", "dense", "--sparsity", "0"])
        assert rc == 0

    def test_bad_sparsity(self, capsys):
        rc = main(["latency", "bert", "--sparsity", "2.0"])
        assert rc == 2

    def test_bad_model_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["latency", "resnet"])


class TestSweep:
    def test_prints_table(self, capsys):
        rc = main([
            "sweep", "bert", "--pattern", "tw",
            "--sparsities", "0.5", "0.75",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50%" in out and "75%" in out

    def test_bad_sparsity(self, capsys):
        rc = main(["sweep", "bert", "--sparsities", "1.5"])
        assert rc == 2


class TestServe:
    def test_single_device(self, capsys):
        rc = main([
            "serve", "bert", "--scale", "32", "--blocks", "1",
            "--requests", "4", "--rows", "2", "-G", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rows/s" in out
        assert re.search(r"^devices +1 ", out, re.M)

    @pytest.mark.parametrize(
        "flags", [["--placement", "replicated"], ["--workers", "2"]],
        ids=["placement", "workers"],
    )
    def test_removed_serve_flags_rejected(self, flags, capsys):
        # --devices alone says how many replicas; one worker thread per slot
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "bert", "--devices", "2", "--executor", "threaded", *flags])
        assert exc_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_threaded_executor(self, capsys):
        rc = main([
            "serve", "bert", "--scale", "32", "--blocks", "1",
            "--requests", "4", "--rows", "2", "-G", "4",
            "--devices", "2",
            "--executor", "threaded",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threaded" in out
        assert "wall time (measured)" in out
        assert "critical path (max device)" in out
        assert "parallel efficiency" not in out
        assert "busy/wall" not in out

    def test_replicated_threaded_runs_waves_on_both_slots(self, tmp_path, capsys):
        # 2048 x 8-row requests overflow one 8192-row wave (the default
        # max_wave_rows), so the second replica's worker gets a wave too
        stats = tmp_path / "stats.json"
        rc = main([
            "serve", "bert", "--scale", "32", "--blocks", "1", "-G", "4",
            "--devices", "2",
            "--executor", "threaded", "--requests", "2048", "--rows", "8",
            "--stats-json", str(stats), "--expect-all-ok",
        ])
        assert rc == 0
        # one wave per replica, and a wave runs every layer (1 block = 6)
        out = capsys.readouterr().out
        assert "shard layout" not in out
        assert "6 GEMMs" in out
        record = json.loads(stats.read_text())
        assert record["waves"]["count"] == 2
        gemms = record["device_gemms"]
        assert gemms == {"Tesla V100-SXM2#0": 6, "Tesla V100-SXM2#1": 6}, gemms

    def test_expect_all_ok_fails_on_a_non_finite_ok_output(self, monkeypatch, capsys):
        import repro.api

        stack = repro.api.demo_layer_stack

        def overflowing(*args, **kwargs):
            weights, names = stack(*args, **kwargs)
            return [w * 1e30 for w in weights], names

        # every request is served ok, but float32 overflows by layer 3
        monkeypatch.setattr(repro.api, "demo_layer_stack", overflowing)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "serve", "bert", "--scale", "32", "--blocks", "1", "-G", "4",
                "--requests", "4", "--rows", "2", "--expect-all-ok",
            ])
        assert rc == 1
        captured = capsys.readouterr()
        assert re.search(r"statuses\s+ok:4\s", captured.out)
        assert "4 ok with a non-finite output" in captured.err

    def test_bad_watchdog_rejected(self, capsys):
        rc = main([
            "serve", "bert", "--executor", "threaded", "--watchdog-s", "-1",
        ])
        assert rc == 2
        assert "watchdog_s" in capsys.readouterr().err

    def test_zero_devices_rejected(self, capsys):
        rc = main(["serve", "bert", "--devices", "0"])
        assert rc == 2
        assert "at least one device" in capsys.readouterr().err

    def test_bad_sparsity(self, capsys):
        rc = main(["serve", "bert", "--sparsity", "1.0"])
        assert rc == 2

    def test_bad_server_config_is_one_error_line(self, capsys):
        rc = main(["serve", "bert", "--max-queue-rows", "-1", "--max-retries", "-1"])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "max_queue_rows" in lines[0] and "max_retries" in lines[0]

    def test_cache_budget_flag_rejected_by_parser(self, capsys):
        # the server serves the compiled formats; there is no cache to size
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bert", "--cache-budget", "1"])
        assert exc.value.code == 2
        assert "--cache-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["continuous", "rate", "duration", "pace"])
    def test_load_generator_flags_rejected_by_parser(self, name, capsys):
        # open- and closed-loop load comes from twbench http_small; serving
        # reports measured host time only, so there is no simulated pacing
        with pytest.raises(SystemExit) as exc:
            main(["serve", "bert", f"--{name}", "1"])
        assert exc.value.code == 2
        assert f"--{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--scale", "0"],
        ["--blocks", "0"],
        ["--rows", "-1"],
        ["--rows", "0"],
        ["--requests", "-1"],
    ])
    def test_bad_demo_sizing_is_one_error_line(self, flags, capsys):
        rc = main(["serve", "bert", *flags])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


class TestInfo:
    def test_dumps_device_and_calibration(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sm_count" in out
        assert "tw_masked_load_stall" in out
        assert "patterns" in out

    def test_json_output(self, capsys):
        import json

        rc = main(["info", "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["device"]["sm_count"] == 80
        assert "tw" in record["registries"]["patterns"]
        assert record["registries"]["engines"] == ["cuda_core", "tensor_core"]
        assert "placements" not in record["registries"]
        assert record["registries"]["executors"] == ["inline", "threaded"]
        assert record["registries"]["schedules"] == ["gradual", "oneshot"]
        assert record["registries"]["importance"] == ["magnitude", "taylor"]
        assert "tw_masked_load_stall" in record["calibration"]
