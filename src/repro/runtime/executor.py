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

``threaded`` runs on a single-threaded event loop (:class:`_Driver`) that
pulls waves lazily, bounds the in-flight window, hands each wave whole to
its slot's worker, runs the watchdog, discards late results, and respawns
stalled workers.

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
:class:`WaveResult` rather than raised.  The threaded driver's **watchdog**
fails a wave that has not finished within ``watchdog_s`` with
:class:`TimeoutError` and respawns the worker holding it, so ``run`` — and
therefore ``TWModelServer.flush`` — never hangs on a stalled worker.
"""

from __future__ import annotations

import contextlib
import inspect
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

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


def _run_wave(ti: int, task: WaveTask) -> tuple:
    """Execute one wave on a worker thread; never raises.

    The reply is ``(ti, error, output, busy_s, gemms)``; the worker times
    into a scratch result, so a late reply can never touch the driver's.
    """
    scratch = WaveResult(output=task.batch)
    error = out = None
    try:
        out = _execute_steps(task, scratch)
    except BaseException as exc:
        error = exc  # recorded, not raised: a worker thread must outlive any failure
    return (ti, error, out, scratch.busy_s, scratch.gemms)


#: waves a worker thread may hold at once: two, so a thread starts its
#: next wave without a round trip through the driver loop
_DEPTH = 2


class _Driver:
    """One ``run()`` of :class:`ThreadedExecutor`: a single-threaded event loop.

    Only the driver touches this state — no locks.  Worker ``w`` serves
    device slot ``w``.  Contracts:

    - **lazy pull, bounded window**: a wave is pulled from the iterable
      only while fewer than ``2 ×`` the slots seen so far are in flight,
      and pulling stops after the first failure (the tail stays with the
      caller);
    - **bounded per-worker depth**: at most :data:`_DEPTH` waves are
      handed to a worker at once; the rest queue here;
    - **watchdog and respawn**: a wave older than ``watchdog_s`` fails
      with :class:`TimeoutError` and the worker holding it is respawned;
    - **late results are discarded**: a reply that is not its worker's
      oldest outstanding wave (an abandoned worker waking up) or that
      belongs to a terminal wave is dropped.
    """

    def __init__(self, ex: "ThreadedExecutor") -> None:
        self.ex = ex
        self.channel: queue.SimpleQueue = queue.SimpleQueue()  # this run's replies
        self.tasks: list[WaveTask] = []
        self.results: list[WaveResult] = []
        self.terminal: list[bool] = []
        self.ready: dict[int, deque] = {}        # worker -> queued wave indices
        self.outstanding: dict[int, deque] = {}  # worker -> handed-out waves, oldest first
        self.in_flight = 0
        self.failed = False

    def drive(self, tasks) -> list[WaveResult]:
        it = iter(tasks)
        exhausted = False
        while True:
            # the failure check precedes the pull: a pulled task is always
            # launched, so every task handed out gets a result
            while (
                not exhausted
                and not self.failed
                and self.in_flight < 2 * max(1, len(self.ready))
            ):
                task = next(it, None)
                if task is None:
                    exhausted = True
                    break
                self.launch(task)
            if self.in_flight == 0:
                if exhausted or self.failed:
                    return self.results
                continue
            self.poll()

    def launch(self, task: WaveTask) -> None:
        ti = len(self.results)
        self.tasks.append(task)
        self.results.append(
            WaveResult(output=task.batch, label=task.label, started_at=time.perf_counter())
        )
        self.terminal.append(False)
        self.in_flight += 1
        if not task.steps:  # degenerate zero-layer wave: pass the batch through
            self.finish(ti)
            return
        w = task.slot
        if w not in self.ready:
            self.ex._ensure_workers(w + 1)
            self.ready[w] = deque()
            self.outstanding[w] = deque()
        self.ready[w].append(ti)
        self.pump(w)

    def pump(self, w: int) -> None:
        """Hand worker ``w`` queued waves up to :data:`_DEPTH`."""
        while len(self.outstanding[w]) < _DEPTH and self.ready[w]:
            ti = self.ready[w].popleft()
            if self.terminal[ti]:
                continue  # watchdog already failed this wave; skip stale work
            self.ex._queues[w].put((self.channel, w, ti, self.tasks[ti]))
            self.outstanding[w].append(ti)

    def finish(self, ti: int) -> None:
        if self.terminal[ti]:
            return
        self.terminal[ti] = True
        self.results[ti].done_at = time.perf_counter()
        if self.results[ti].error is not None:
            self.failed = True
        self.in_flight -= 1

    def crash(self, w: int, error: BaseException) -> None:
        """Replace a condemned worker; fail the wave it was running.

        Waves handed to the worker behind the running one never ran: they
        go back to the front of its queue for the replacement.
        """
        out = self.outstanding[w]
        self.outstanding[w] = deque()
        self.ex._respawn(w)
        if out:
            ti = out.popleft()
            if not self.terminal[ti]:
                self.results[ti].error = error
                self.finish(ti)
            self.ready[w].extendleft(reversed(out))
        self.pump(w)

    def handle(self, w: int, reply) -> None:
        ti, error, out, busy_s, gemms = reply
        held = self.outstanding.get(w)
        if not held or held[0] != ti:
            return  # late reply from an abandoned worker
        held.popleft()
        if not self.terminal[ti]:
            result = self.results[ti]
            result.busy_s += busy_s
            result.gemms += gemms
            result.error = error
            if error is None:
                result.output = out
            self.finish(ti)
        self.pump(w)

    def poll(self) -> None:
        """Wait for replies (bounded by the watchdog), then run the watchdog."""
        timeout = None
        wd = self.ex.watchdog_s
        if wd:
            oldest = min(
                (r.started_at for r, done in zip(self.results, self.terminal) if not done),
                default=time.perf_counter(),
            )
            timeout = max(0.0, oldest + wd - time.perf_counter())
        with contextlib.suppress(queue.Empty):
            self.handle(*self.channel.get(timeout=timeout))
            while True:
                self.handle(*self.channel.get_nowait())
        self.watchdog()

    def watchdog(self) -> None:
        """Fail every wave older than the watchdog; respawn stalled workers."""
        wd = self.ex.watchdog_s
        if not wd:
            return
        now = time.perf_counter()
        for ti, result in enumerate(self.results):
            if self.terminal[ti] or now - result.started_at <= wd:
                continue
            err = TimeoutError(
                f"wave {self.tasks[ti].index} stalled past the {wd:g}s watchdog"
            )
            stalled_on = next(
                (w for w, out in self.outstanding.items() if out and out[0] == ti),
                None,
            )
            if stalled_on is not None:
                self.crash(stalled_on, err)
            else:
                # queued behind a stalled sibling: fail it in place; its
                # queued entry is skipped, its late reply dropped
                result.error = err
                self.finish(ti)


class ThreadedExecutor(Executor):
    """One persistent daemon worker thread per device slot, run by :class:`_Driver`.

    Each worker thread reads ``(reply channel, worker index, wave index,
    task)`` items from its own queue and puts its reply on the run's
    channel, so persistent threads serve successive ``run`` calls (one at
    a time).  Workers spawn on a slot's first wave.  A respawn empties the
    stalled thread's queue, retires the thread (it exits after its current
    wave) and starts a fresh one on a fresh queue; its late reply, if any,
    no longer matches the driver's bookkeeping and is discarded.

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
        self._spawn_lock = threading.Lock()

    def run(self, tasks) -> list[WaveResult]:
        return _Driver(self).drive(tasks)

    @staticmethod
    def _worker_loop(inbox: queue.SimpleQueue) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return  # close() or respawn retired this thread
            try:
                reply_to, w, ti, task = item
                reply_to.put((w, _run_wave(ti, task)))
            except Exception:
                continue  # malformed item: drop it, keep the worker alive

    def _spawn(self, w: int) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        t = threading.Thread(target=self._worker_loop, args=(inbox,), daemon=True)
        if w == len(self._threads):
            self._queues.append(inbox)
            self._threads.append(t)
        else:
            retired = self._queues[w]
            with contextlib.suppress(queue.Empty):
                while True:  # the driver re-sends what the old thread held
                    retired.get_nowait()
            retired.put(None)  # the old thread exits once it wakes
            self._queues[w], self._threads[w] = inbox, t
        t.start()

    def _ensure_workers(self, n: int) -> None:
        with self._spawn_lock:
            while len(self._threads) < n:
                self._spawn(len(self._threads))

    def _respawn(self, w: int) -> None:
        with self._spawn_lock:
            self._spawn(w)

    def close(self) -> None:
        with self._spawn_lock:
            for inbox in self._queues:
                inbox.put(None)
            self._queues.clear()
            self._threads.clear()


def _factory(cls):
    """Registry factory for ``cls`` that rejects options it does not accept.

    ``None``-valued options mean "executor default" and are dropped, so
    ``EXECUTORS.create("inline", watchdog_s=None)`` works while
    ``EXECUTORS.create("inline", watchdog_s=3)`` is an error, not a no-op.
    """
    accepted = set(inspect.signature(cls).parameters)

    def make(**options) -> Executor:
        options = {k: v for k, v in options.items() if v is not None}
        extra = {k: v for k, v in options.items() if k not in accepted}
        if extra:
            opts = ", ".join(f"{k}={v!r}" for k, v in sorted(extra.items()))
            raise ValueError(f"executor {cls.name!r} does not accept options: {opts}")
        return cls(**options)

    return make


EXECUTORS.register("inline", _factory(InlineExecutor), aliases=("serial",))
EXECUTORS.register("threaded", _factory(ThreadedExecutor), aliases=("threads",))


def available_executors() -> list[str]:
    """Canonical executor names."""
    return EXECUTORS.names()


def resolve_executor(
    executor: "Executor | str | None",
    *,
    watchdog_s: float | None = None,
) -> Executor:
    """Normalise an ``executor=`` argument to a ready :class:`Executor`.

    Accepts a ready instance (``watchdog_s`` must then be ``None`` — it
    belongs to the instance), a registry name, or ``None`` (inline).  The
    watchdog is forwarded only when given, and factories reject options
    they do not accept — ``resolve_executor("inline", watchdog_s=3)`` is
    an error, not a no-op.
    """
    if executor is None:
        executor = "inline"
    if isinstance(executor, Executor):
        if watchdog_s is not None:
            raise ValueError(
                "pass watchdog_s to the Executor constructor, not alongside "
                "a ready instance"
            )
        return executor
    if isinstance(executor, str):
        return EXECUTORS.create(executor, watchdog_s=watchdog_s)
    raise TypeError(
        f"executor must be an Executor instance, a registry name "
        f"({', '.join(available_executors())}) or None, "
        f"got {type(executor).__name__}"
    )
