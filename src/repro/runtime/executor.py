"""Pluggable wave executors: how placed work actually runs.

:class:`~repro.runtime.placement.Placement` decides *where* each
micro-batch wave runs — one device slot per wave
(:meth:`~repro.runtime.placement.Placement.slot_for_wave`); an
:class:`Executor` decides *how* waves execute in wall-time:

- ``inline``   — every wave's layers run sequentially on the calling
  thread.  The bit-identity oracle ``threaded`` is tested against.
- ``threaded`` — one worker thread per device slot.  Waves bound for
  different slots (``replicated``) run concurrently.  NumPy GEMMs release
  the GIL, so on a multi-core host the overlap is real compute overlap.

``threaded`` hands each wave whole to its slot's worker as a
:class:`~concurrent.futures.Future` and waits on the futures: it pulls
waves lazily into an in-flight window of two per slot, runs the
watchdog, and retires stalled workers; a late result lands on a future
nobody waits for.

Oracle contract
---------------
``inline`` **is and remains the bit-identity oracle**: every concurrent
executor must produce byte-identical outputs to an ``inline`` run of the
same waves, with and without injected faults.  ``inline`` itself must
never grow concurrency (``tests/test_executor.py``/``tests/test_faults.py``
enforce this).  Executors are resolved through :data:`EXECUTORS`, so a new
execution strategy is a registry entry, not a new dispatch path in the
server.

Determinism contract
--------------------
Each wave's layer chain is a fixed sequence of
:func:`~repro.kernels.masked.tw_gemm` calls on the same compiled formats
regardless of which worker runs it, and waves never share mutable state,
so outputs are bit-identical across executors.  Only wall-time and the
measured busy stats differ.

Fault tolerance
---------------
A :class:`WaveTask` may carry a
:class:`~repro.runtime.faults.FaultInjector`; every executor consults it
before every step, so a seeded fault schedule replays identically across
executors.  Failures — injected or genuine — are *recorded* on the wave's
:class:`WaveResult` rather than raised.  The ``threaded`` executor's
**watchdog** fails a wave that has not finished within ``watchdog_s``
with :class:`TimeoutError` and replaces the worker running it, so
``run`` — and therefore ``TWModelServer.flush`` — never hangs on a
stalled worker.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.fusion import EpilogueSpec, apply_epilogue
from repro.kernels.masked import tw_gemm
from repro.patterns.registry import Registry
from repro.runtime.faults import FaultInjector

__all__ = [
    "EXECUTORS",
    "Executor",
    "InlineExecutor",
    "ThreadedExecutor",
    "WaveStep",
    "WaveTask",
    "WaveResult",
    "available_executors",
    "resolve_executor",
]

EXECUTORS = Registry("executor")


@dataclass(frozen=True)
class WaveStep:
    """One layer of a wave: the compiled format and its optional epilogue.

    The same for every wave, so the server builds its steps once, at
    :meth:`~repro.runtime.server.TWModelServer.add_layer`.  The format and
    epilogue may be in live coordinates (a compiled model's
    ``CompiledLayer.tw`` and ``tw_epilogue``): only the first step's ``K``
    and the last step's ``N`` are the model's.
    """

    layer: int
    tw: TiledTWMatrix
    #: optional fused non-GEMM consumer applied right after this step's
    #: GEMM, inside the wave task (the step's input activations serve as
    #: the residual stream); its time counts in the slot's busy accounting
    epilogue: EpilogueSpec | None = None


@dataclass(frozen=True)
class WaveTask:
    """One micro-batch wave: stacked activations, its steps, and its slot.

    ``slot`` is the device slot that runs every step (the placement's
    :meth:`~repro.runtime.placement.Placement.slot_for_wave`) and
    ``label`` its stats name (``name#slot``).  ``faults`` optionally
    carries the server's :class:`~repro.runtime.faults.FaultInjector`:
    attaching the schedule to the task keeps executors config-free and
    guarantees every executor consults the same schedule at the same
    ``(wave index, layer, slot)`` sites.
    """

    index: int
    batch: np.ndarray
    steps: tuple[WaveStep, ...]
    slot: int = 0
    label: str = "slot#0"
    faults: FaultInjector | None = None


@dataclass
class WaveResult:
    """One executed wave: output + measured occupancy of the slot that ran it.

    ``label`` is the wave's slot label (``name#slot``); ``busy_s`` and
    ``gemms`` are that slot's measured step time and GEMM count for this
    wave.  ``started_at``/``done_at`` are ``perf_counter`` timestamps
    bracketing the wave's executor service — ``started_at`` is set when
    the wave is launched into its executor, so the server can split
    request latency into queue wait (``started_at - submit time``) and
    wave service (``done_at - started_at``).

    ``error`` records a step failure instead of raising from the
    executor: the caller can then account the work that *did* complete —
    this wave's pre-failure steps are already counted in ``busy_s`` and
    ``gemms`` — before surfacing the error.
    """

    output: np.ndarray
    label: str = "slot#0"
    busy_s: float = 0.0
    gemms: int = 0
    started_at: float = 0.0
    done_at: float = 0.0
    error: BaseException | None = None


def _execute_steps(task: WaveTask, result: WaveResult) -> np.ndarray:
    """Run ``task``'s steps sequentially on its batch, timing slot occupancy.

    Shared by every executor so the math — and therefore the output bits —
    cannot diverge between them.  The optional fault injector is consulted
    *inside* the timed region before each GEMM: an injected exception
    fires before the math runs (a failing kernel launch), and an injected
    latency spike shows up in the slot's busy accounting like any real
    slow step would.
    """
    a = task.batch
    for step in task.steps:
        t0 = time.perf_counter()
        if task.faults is not None:
            task.faults.before_step(task.index, step.layer, task.slot)
        y = tw_gemm(a, step.tw)
        if step.epilogue is not None:
            y = apply_epilogue(y, step.epilogue, residual=a)
        a = y
        result.busy_s += time.perf_counter() - t0
        result.gemms += 1
    return a


class Executor:
    """Interface: run waves, return per-wave results in submission order.

    ``tasks`` may be any iterable — executors pull from it *lazily*, so a
    caller can materialise each wave's (potentially large) batch only
    when the executor is ready to admit it.  A step failure is recorded
    on its :attr:`WaveResult.error` (executors do not raise for it) and
    stops further pulling, leaving the iterable's unconsumed tail
    untouched for the caller to retry; the returned list covers exactly
    the consumed prefix, so completed work is never lost to one bad wave.
    """

    name = "base"

    def run(self, tasks) -> list[WaveResult]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for CLI/stats reporting."""
        return self.name

    def close(self) -> None:
        """Release executor-owned workers (idempotent; no-op for ``inline``)."""


class InlineExecutor(Executor):
    """Sequential execution on the calling thread (the bit-identity oracle).

    Waves run one after another, each wave's layers in order, so wall-time
    equals the summed busy time, not the busiest slot's
    (``critical_path_s()``).
    """

    name = "inline"

    def run(self, tasks) -> list[WaveResult]:
        results = []
        for task in tasks:  # lazy: one wave materialised at a time
            result = WaveResult(
                output=task.batch, label=task.label, started_at=time.perf_counter()
            )
            results.append(result)
            try:
                result.output = _execute_steps(task, result)
            except (KeyboardInterrupt, SystemExit):
                raise  # never swallow an interpreter-level shutdown
            except BaseException as exc:
                result.error = exc
                result.done_at = time.perf_counter()
                break  # stop pulling; the caller keeps the tail queued
            result.done_at = time.perf_counter()
        return results


class ThreadedExecutor(Executor):
    """One persistent daemon worker thread per device slot.

    Each slot's worker reads ``(future, task)`` items from its own queue:
    it skips a cancelled future, otherwise runs the wave and sets the
    future's result, so persistent threads serve successive ``run`` calls
    (one at a time).  Workers spawn on a slot's first wave.  ``run`` waits
    on the futures and keeps these contracts:

    - **lazy pull**: a wave is pulled from the iterable only while fewer
      than ``2 ×`` the slots seen in this run are in flight, and pulling
      stops after the first failure (the tail stays with the caller);
    - **watchdog**: a wave older than ``watchdog_s`` fails with
      :class:`TimeoutError` and its future is cancelled; if the wave is
      already running, its slot's worker is retired (:meth:`_retire`);
    - **late results**: a retired worker's result lands on a future
      nobody waits for.

    The workers are daemon threads, not a
    :class:`~concurrent.futures.ThreadPoolExecutor`'s: a wave stalled in
    a BLAS call or a fault never holds up interpreter exit.

    Parameters
    ----------
    watchdog_s:
        Wall-time bound on any single wave (default 60s); ``None``/``0``
        disables it.
    """

    name = "threaded"

    def __init__(self, watchdog_s: float | None = 60.0) -> None:
        try:
            watchdog_ok = watchdog_s is None or (
                np.isfinite(float(watchdog_s)) and float(watchdog_s) >= 0
            )
        except (TypeError, ValueError):
            watchdog_ok = False
        if not watchdog_ok:
            raise ValueError(
                f"invalid options for executor {self.name!r}: watchdog_s must be "
                f"finite and >= 0 (0/None disables), got {watchdog_s!r}"
            )
        self.watchdog_s = float(watchdog_s) if watchdog_s else None  # 0 → disabled
        self._queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def run(self, tasks) -> list[WaveResult]:
        results: list[WaveResult] = []
        pending: dict[Future, tuple[WaveResult, WaveTask]] = {}
        slots: set[int] = set()
        it = iter(tasks)
        exhausted = failed = False
        wd = self.watchdog_s
        while True:
            # the failure check precedes the pull: a pulled task is always
            # launched, so every task handed out gets a result
            while not (exhausted or failed) and len(pending) < 2 * max(1, len(slots)):
                task = next(it, None)
                if task is None:
                    exhausted = True
                    break
                slots.add(task.slot)
                result = WaveResult(
                    output=task.batch, label=task.label, started_at=time.perf_counter()
                )
                results.append(result)
                future = Future()
                self._inbox(task.slot).put((future, task))
                pending[future] = (result, task)
            if not pending:
                return results
            timeout = None
            if wd:
                oldest = min(r.started_at for r, _ in pending.values())
                timeout = max(0.0, oldest + wd - time.perf_counter())
            wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            now = time.perf_counter()
            for future, (result, task) in list(pending.items()):
                if future.done():
                    done = future.result()
                    result.output, result.error = done.output, done.error
                    result.busy_s, result.gemms = done.busy_s, done.gemms
                elif wd and now - result.started_at > wd:
                    result.error = TimeoutError(
                        f"wave {task.index} stalled past the {wd:g}s watchdog"
                    )
                    if not future.cancel() and future.running():
                        self._retire(task.slot)
                else:
                    continue
                result.done_at = time.perf_counter()
                failed = failed or result.error is not None
                del pending[future]

    @staticmethod
    def _worker_loop(inbox: queue.SimpleQueue) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return  # close() or _retire() retired this thread
            try:
                future, task = item
                if not future.set_running_or_notify_cancel():
                    continue  # the watchdog already failed this wave
            except Exception:
                continue  # malformed item: drop it, keep the worker alive
            # a scratch result: a late wave never touches the run's results
            result = WaveResult(output=task.batch)
            try:
                result.output = _execute_steps(task, result)
            except BaseException as exc:
                result.error = exc  # recorded, not raised: a worker thread must outlive any failure
            future.set_result(result)

    def _spawn(self, inbox: queue.SimpleQueue) -> threading.Thread:
        t = threading.Thread(target=self._worker_loop, args=(inbox,), daemon=True)
        t.start()
        return t

    def _inbox(self, w: int) -> queue.SimpleQueue:
        """Slot ``w``'s queue; spawns the workers up to slot ``w`` on first use."""
        with self._lock:
            while len(self._threads) <= w:
                self._queues.append(queue.SimpleQueue())
                self._threads.append(self._spawn(self._queues[-1]))
            return self._queues[w]

    def _retire(self, w: int) -> None:
        """Replace slot ``w``'s worker without waiting for it.

        The replacement gets a fresh queue that inherits the waves still
        queued; the old thread exits once its running wave returns.
        """
        with self._lock:
            retired, inbox = self._queues[w], queue.SimpleQueue()
            with contextlib.suppress(queue.Empty):
                while True:
                    inbox.put(retired.get_nowait())
            retired.put(None)
            self._queues[w], self._threads[w] = inbox, self._spawn(inbox)

    def close(self) -> None:
        with self._lock:
            for inbox in self._queues:
                inbox.put(None)
            self._queues.clear()
            self._threads.clear()


EXECUTORS.register("inline", InlineExecutor, aliases=("serial",))
EXECUTORS.register("threaded", ThreadedExecutor, aliases=("threads",))


def available_executors() -> list[str]:
    """Canonical executor names."""
    return EXECUTORS.names()


def resolve_executor(executor: str, *, watchdog_s: float | None = None) -> Executor:
    """A ready :class:`Executor` for a registry name.

    ``watchdog_s`` is forwarded only when given, so an executor without a
    watchdog rejects it (``TypeError``) rather than ignoring it.
    """
    options = {} if watchdog_s is None else {"watchdog_s": watchdog_s}
    return EXECUTORS.create(executor, **options)
