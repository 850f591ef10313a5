"""Tests for the pluggable wave executors (inline / threaded).

The contract under test: ``threaded`` produces **bit-identical** outputs
to ``inline`` for any wave list (the math is a fixed per-wave chain of
``tw_gemm`` calls regardless of which thread runs it), and it genuinely
overlaps device slots in wall-time — verified with the fault injector's
``latency`` rule, whose sleeps inside each timed step must overlap across
slots.
"""

import time

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.runtime.executor import (
    EXECUTORS,
    Executor,
    InlineExecutor,
    ThreadedExecutor,
    WaveStep,
    WaveTask,
    available_executors,
    resolve_executor,
)
from repro.runtime.faults import FaultInjector


def _tw_layer(rng, k=24, n=24, g=8, sparsity=0.5):
    dense = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    return TiledTWMatrix.from_masks(dense, g, step.col_keeps[0], step.row_masks[0])


def _latency(seconds):
    """A fault schedule that sleeps ``seconds`` inside every timed step."""
    return FaultInjector.from_spec(f"latency:duration={seconds}")


def _tasks(rng, n_layers=4, n_waves=3, slots=(0, 1), latency=0.0, k=24):
    """``n_waves`` waves over one layer chain; wave ``w`` runs on
    ``slots[w % len(slots)]``."""
    layers = [_tw_layer(rng, k=k) for _ in range(n_layers)]
    faults = _latency(latency) if latency > 0.0 else None
    steps = tuple(WaveStep(layer=i, tw=tw) for i, tw in enumerate(layers))
    tasks = []
    for w in range(n_waves):
        slot = slots[w % len(slots)]
        tasks.append(
            WaveTask(
                index=w, batch=rng.standard_normal((3, k)), steps=steps,
                slot=slot, label=f"dev#{slot}", faults=faults,
            )
        )
    return tasks


class TestRegistry:
    def test_names_and_aliases(self):
        assert available_executors() == ["inline", "threaded"]
        assert EXECUTORS.canonical("serial") == "inline"
        assert EXECUTORS.canonical("threads") == "threaded"
        with pytest.raises(KeyError):
            EXECUTORS.canonical("gpu")

    def test_resolve_returns_instances(self):
        assert isinstance(resolve_executor(None), InlineExecutor)
        assert isinstance(resolve_executor("inline"), InlineExecutor)
        threaded = resolve_executor("threaded", watchdog_s=2.0)
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.watchdog_s == 2.0

    def test_resolve_passes_instances_through(self):
        ex = ThreadedExecutor(watchdog_s=3.0)
        assert resolve_executor(ex) is ex
        with pytest.raises(ValueError):
            resolve_executor(ex, watchdog_s=2.0)  # knobs belong to the instance

    def test_resolve_rejects_bad_types(self):
        with pytest.raises(TypeError) as exc_info:
            resolve_executor(42)
        # the error names the registry entries
        message = str(exc_info.value)
        for name in available_executors():
            assert name in message

    def test_constructor_validation(self):
        for bad in (-1.0, float("nan"), "soon"):
            with pytest.raises(ValueError, match="watchdog_s"):
                ThreadedExecutor(watchdog_s=bad)

    def test_removed_caps_are_rejected(self):
        # one worker per slot and a window of 2 x slots: neither is a knob
        with pytest.raises(TypeError, match="inflight"):
            ThreadedExecutor(inflight=1)
        with pytest.raises(TypeError, match="workers"):
            ThreadedExecutor(workers=2)

    def test_describe(self):
        assert InlineExecutor().describe() == "inline"
        assert ThreadedExecutor().describe() == "threaded"


class TestBitIdentity:
    @pytest.mark.parametrize(
        "slots",
        [
            (0,),          # single slot
            (0, 1),        # two replicas, waves alternate
            (0, 1, 2, 3),  # four replicas
        ],
    )
    def test_threaded_matches_inline(self, slots):
        rng = np.random.default_rng(0)
        tasks = _tasks(rng, slots=slots)
        want = InlineExecutor().run(tasks)
        got = ThreadedExecutor().run(tasks)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.output, w.output)

    def test_bounded_inflight_still_correct(self):
        # more waves than the 2 x slots window holds: run() admits
        # them in turns and every output still matches inline
        rng = np.random.default_rng(2)
        tasks = _tasks(rng, n_waves=12, slots=(0, 1))
        want = InlineExecutor().run(tasks)
        got = ThreadedExecutor().run(tasks)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.error is None
            assert g.label == w.label
            np.testing.assert_array_equal(g.output, w.output)

    def test_empty_task_list(self):
        assert ThreadedExecutor().run([]) == []
        assert InlineExecutor().run([]) == []

    def test_zero_layer_wave_passes_batch_through(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((2, 5))
        tasks = [WaveTask(index=0, batch=batch, steps=())]
        for executor in (InlineExecutor(), ThreadedExecutor()):
            (result,) = executor.run(tasks)
            np.testing.assert_array_equal(result.output, batch)
            assert result.done_at > 0


class TestAccounting:
    def test_busy_and_gemm_counts_match_inline(self):
        rng = np.random.default_rng(4)
        tasks = _tasks(rng, n_waves=2, slots=(0, 1))
        inline = InlineExecutor().run(tasks)
        threaded = ThreadedExecutor().run(tasks)
        assert [r.label for r in threaded] == ["dev#0", "dev#1"]
        for i, t in zip(inline, threaded):
            assert (i.label, i.gemms) == (t.label, t.gemms) == (t.label, 4)
            assert t.busy_s > 0

    def test_latency_fault_floors_slot_occupancy(self):
        # injected latency shows up in the slot's busy accounting
        rng = np.random.default_rng(5)
        latency = 0.02
        tasks = _tasks(rng, n_layers=2, n_waves=2, slots=(0, 1), latency=latency)
        results = InlineExecutor().run(tasks)
        assert [r.label for r in results] == ["dev#0", "dev#1"]
        for result in results:
            assert result.busy_s >= 2 * latency  # two layers, one sleep each


class TestOverlap:
    """Steps slowed by injected latency must overlap across slots in
    measured wall-time.

    Sleeps release the GIL, so these hold even on a single-core host; the
    margins are generous to absorb scheduler jitter.
    """

    def test_replicated_style_waves_overlap(self):
        rng = np.random.default_rng(6)
        latency = 0.04
        faults = _latency(latency)
        steps = (WaveStep(layer=0, tw=_tw_layer(rng)),)
        tasks = [  # waves alternate slots
            WaveTask(index=w, batch=rng.standard_normal((3, 24)), steps=steps,
                     slot=w % 2, label=f"dev#{w % 2}", faults=faults)
            for w in range(4)
        ]
        t0 = time.perf_counter()
        inline = InlineExecutor().run(tasks)
        inline_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        threaded = ThreadedExecutor().run(tasks)
        threaded_s = time.perf_counter() - t0
        for i, t in zip(inline, threaded):
            np.testing.assert_array_equal(i.output, t.output)
        assert inline_s >= 4 * latency * 0.9
        # two slots -> two waves each, overlapped: well under the serial sum
        assert threaded_s < inline_s * 0.75


class TestErrors:
    """Executors record step failures per result instead of raising: the
    caller accounts the completed work, then surfaces the error itself."""

    def test_worker_exception_recorded_on_result(self):
        rng = np.random.default_rng(8)
        tasks = _tasks(rng, n_waves=2)
        bad = WaveTask(
            index=2, batch=rng.standard_normal((3, 7)), steps=tasks[0].steps
        )  # K mismatch -> tw_gemm raises inside a worker
        results = ThreadedExecutor().run(tasks + [bad])
        assert isinstance(results[2].error, ValueError)
        want = InlineExecutor().run(tasks)
        for got, ref in zip(results[:2], want):
            assert got.error is None
            np.testing.assert_array_equal(got.output, ref.output)

    def test_inline_stops_pulling_after_error(self):
        rng = np.random.default_rng(9)
        tasks = _tasks(rng, n_waves=2)
        bad = WaveTask(
            index=9, batch=rng.standard_normal((3, 7)), steps=tasks[0].steps
        )
        pulled = []

        def stream():
            for t in [tasks[0], bad, tasks[1]]:
                pulled.append(t.index)
                yield t

        results = InlineExecutor().run(stream())
        assert len(results) == 2  # the tail was never pulled
        assert pulled == [0, 9]
        assert results[0].error is None
        assert isinstance(results[1].error, ValueError)

    def test_base_executor_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().run([])


class TestPersistentWorkers:
    def test_threads_reused_across_runs(self):
        rng = np.random.default_rng(10)
        ex = ThreadedExecutor()
        first = ex.run(_tasks(rng, n_waves=2, slots=(0, 1)))
        n_threads = len(ex._threads)
        assert n_threads == 2  # one per slot
        second = ex.run(_tasks(rng, n_waves=2, slots=(0, 1)))
        assert len(ex._threads) == n_threads  # reused, not respawned
        assert all(r.error is None for r in first + second)

    def test_one_worker_per_slot(self):
        rng = np.random.default_rng(12)
        ex = ThreadedExecutor()
        results = ex.run(_tasks(rng, n_waves=3, slots=(0, 1, 2)))
        assert [r.label for r in results] == ["dev#0", "dev#1", "dev#2"]
        assert len(ex._threads) == 3
        ex.close()

    def test_inflight_window_scales_with_slots(self):
        rng = np.random.default_rng(13)
        tasks = _tasks(rng, n_waves=8, slots=(0, 1), latency=0.01)
        pulled_at = []

        def stream():
            for t in tasks:
                pulled_at.append(time.perf_counter())
                yield t

        results = ThreadedExecutor().run(stream())
        assert len(results) == 8
        # two slots -> a window of 4: waves 0-3 are all pulled before the
        # first one finishes its four 10 ms steps
        assert pulled_at[3] < results[0].done_at
        # ... and wave i is pulled only once at most 3 earlier waves are
        # still in flight
        for i in range(4, len(tasks)):
            done = sum(r.done_at <= pulled_at[i] for r in results[:i])
            assert done >= i - 3, (i, done)

    def test_lazy_pull_respects_inflight_window(self):
        rng = np.random.default_rng(11)
        tasks = _tasks(rng, n_waves=6, slots=(0,), latency=0.01)
        pulled_at = []

        def stream():
            for t in tasks:
                pulled_at.append(time.perf_counter())
                yield t

        results = ThreadedExecutor().run(stream())
        assert len(results) == 6
        # one slot -> a window of 2: wave i is pulled only once at most one
        # earlier wave is in flight, so wave i-2 has finished; run()
        # never slurps the whole stream upfront
        for i in range(2, len(tasks)):
            assert results[i - 2].done_at <= pulled_at[i]
        # ... and the window is 2, not 1: wave 1 is pulled while wave 0
        # still sleeps through its four 10 ms steps
        assert pulled_at[1] < results[0].done_at


class TestOneDriver:
    """The threaded executor's watchdog, worker retirement and close contracts."""

    def test_stalled_wave_fails_and_pool_recovers(self):
        from repro.runtime.faults import FaultInjector, FaultRule, LatencyFault

        rng = np.random.default_rng(30)
        tasks = _tasks(rng, n_layers=1, n_waves=2, slots=(0,))
        stall = FaultInjector([FaultRule(fault=LatencyFault(duration_s=0.6), wave=0)])
        stalled = [WaveTask(t.index, t.batch, t.steps, faults=stall) for t in tasks]
        ex = ThreadedExecutor(watchdog_s=0.15)
        try:
            t0 = time.perf_counter()
            results = ex.run(stalled)
            assert time.perf_counter() - t0 < 0.5  # failed, not waited out
            assert isinstance(results[0].error, TimeoutError)
            (after,) = ex.run(tasks[1:])
            assert after.error is None
            np.testing.assert_array_equal(
                after.output, InlineExecutor().run(tasks[1:])[0].output
            )
        finally:
            ex.close()

    def test_abandoned_thread_retires_after_its_stall(self):
        from repro.runtime.faults import FaultInjector, FaultRule, LatencyFault

        rng = np.random.default_rng(31)
        (task,) = _tasks(rng, n_layers=1, n_waves=1, slots=(0,))
        stall = FaultInjector([FaultRule(fault=LatencyFault(duration_s=0.3))])
        ex = ThreadedExecutor(watchdog_s=0.1)
        (result,) = ex.run([WaveTask(0, task.batch, task.steps, faults=stall)])
        assert isinstance(result.error, TimeoutError)
        abandoned = ex._threads[0]
        ex._retire(0)  # run() already replaced it once; again is safe
        abandoned.join(timeout=5.0)
        assert not abandoned.is_alive()  # no leaked thread per respawn
        assert ex._threads[0].is_alive()

    def test_stalled_worker_does_not_hold_up_interpreter_exit(self):
        # the workers are daemon threads: a process whose wave is still
        # sleeping in a retired worker exits as soon as main returns
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        script = textwrap.dedent(
            """
            import numpy as np
            from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
            from repro.formats.tiled import TiledTWMatrix
            from repro.runtime.executor import ThreadedExecutor, WaveStep, WaveTask
            from repro.runtime.faults import FaultInjector, FaultRule, LatencyFault

            def main():
                dense = np.random.default_rng(0).standard_normal((24, 24))
                step = tw_prune_step([np.abs(dense)], 0.5, TWPruneConfig(granularity=8))
                tw = TiledTWMatrix.from_masks(
                    dense, 8, step.col_keeps[0], step.row_masks[0]
                )
                stall = FaultInjector([FaultRule(fault=LatencyFault(duration_s=30))])
                task = WaveTask(
                    0, np.ones((3, 24)), (WaveStep(layer=0, tw=tw),), faults=stall
                )
                (result,) = ThreadedExecutor(watchdog_s=0.2).run([task])
                assert isinstance(result.error, TimeoutError), result.error

            if __name__ == "__main__":
                main()
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(  # raises TimeoutExpired past 15 s
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=15,
        )
        assert proc.returncode == 0, proc.stderr

    def test_close_is_idempotent(self):
        ex = ThreadedExecutor()
        (result,) = ex.run(_tasks(np.random.default_rng(26), n_waves=1, slots=(0,)))
        assert result.error is None
        ex.close()
        ex.close()
        assert ex._threads == []

    def test_threaded_close_retires_workers_and_run_respawns(self):
        rng = np.random.default_rng(32)
        tasks = _tasks(rng, n_waves=2, slots=(0, 1))
        ex = ThreadedExecutor()
        ex.run(tasks)
        threads = list(ex._threads)
        ex.close()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
        again = ex.run(tasks)
        want = InlineExecutor().run(tasks)
        for g, w in zip(again, want):
            np.testing.assert_array_equal(g.output, w.output)

    def test_threaded_stress_more_workers_than_cores(self):
        import sys

        rng = np.random.default_rng(33)
        tasks = _tasks(rng, n_layers=8, n_waves=24, slots=tuple(range(8)))
        want = InlineExecutor().run(tasks)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ThreadedExecutor(watchdog_s=30.0).run(tasks)
        finally:
            sys.setswitchinterval(old)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.error is None
            assert (g.label, g.gemms) == (w.label, w.gemms)  # no lost update
            np.testing.assert_array_equal(g.output, w.output)
