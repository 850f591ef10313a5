"""Pluggable wave executors: how placed work actually runs.

:class:`~repro.runtime.placement.Placement` decides *where* each layer of a
micro-batch wave runs (the device→work mapping,
:meth:`~repro.runtime.placement.Placement.wave_slots`); an :class:`Executor`
decides *how* that mapping executes in wall-time:

- ``inline``   — every wave's layers run sequentially on the calling
  thread.  The bit-identity oracle ``threaded`` is tested against.
- ``threaded`` — one worker thread per device slot.  Waves bound for
  different slots (``replicated``) run concurrently, and under
  ``layer_sharded`` successive waves *stream* through the shard pipeline.
  NumPy GEMMs release the GIL, so on a multi-core host the overlap is
  real compute overlap.

``threaded`` runs on a single-threaded event loop (:class:`_Driver`) that
pulls waves lazily, bounds the in-flight window, forwards each wave's
per-slot segments from worker to worker, runs the watchdog, discards late
results, and respawns stalled workers.

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
:func:`~repro.kernels.masked.tw_gemm` calls on the same operands and plans
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
from repro.runtime.scheduler import ExecutionPlan

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
    """One layer of one wave, tagged with the device slot that runs it.

    The placement emits the ``(layer, slot)`` mapping; the server resolves
    the compiled format/plan; the executor only ever consumes these
    finished work items.
    """

    layer: int
    tw: TiledTWMatrix
    plan: ExecutionPlan
    slot: int
    label: str
    #: optional fused non-GEMM consumer applied right after this step's
    #: GEMM, inside the wave task (the step's input activations serve as
    #: the residual stream); its time counts in the slot's busy accounting
    epilogue: EpilogueSpec | None = None


@dataclass(frozen=True)
class WaveTask:
    """One micro-batch wave: stacked activations + its device-tagged steps.

    ``faults`` optionally carries the server's
    :class:`~repro.runtime.faults.FaultInjector`: attaching the schedule
    to the task keeps executors config-free and guarantees every executor
    consults the same schedule at the same ``(wave index, layer, slot)``
    sites.
    """

    index: int
    batch: np.ndarray
    steps: tuple[WaveStep, ...]
    faults: FaultInjector | None = None


@dataclass
class WaveResult:
    """One executed wave: output + measured per-slot occupancy.

    ``busy_by_label``/``gemms_by_label`` are keyed by the placement's slot
    labels (``name#slot``); ``started_at``/``done_at`` are ``perf_counter``
    timestamps bracketing the wave's executor service — ``started_at`` is
    set when the wave is launched into its executor, so the server can
    split request latency into queue wait (``started_at - submit time``)
    and wave service (``done_at - started_at``).

    ``error`` records a step failure instead of raising from the
    executor: the caller can then account the work that *did* complete —
    including this wave's pre-failure steps, whose busy/gemm numbers are
    already merged in — before surfacing the error.
    """

    output: np.ndarray
    busy_by_label: dict[str, float] = field(default_factory=dict)
    gemms_by_label: dict[str, int] = field(default_factory=dict)
    started_at: float = 0.0
    done_at: float = 0.0
    error: BaseException | None = None

    def merge(self, busy: dict[str, float], gemms: dict[str, int]) -> None:
        """Add one segment's per-slot occupancy into this wave's totals."""
        for label, t in busy.items():
            self.busy_by_label[label] = self.busy_by_label.get(label, 0.0) + t
        for label, n in gemms.items():
            self.gemms_by_label[label] = self.gemms_by_label.get(label, 0) + n


def _execute_steps(
    a: np.ndarray,
    steps,
    result: WaveResult,
    *,
    wave_index: int = 0,
    faults: FaultInjector | None = None,
) -> np.ndarray:
    """Run ``steps`` sequentially on ``a``, timing slot occupancy.

    Shared by every executor so the math — and therefore the output bits —
    cannot diverge between them.  The optional fault injector is consulted
    *inside* the timed region before each GEMM: an injected exception
    fires before the math runs (a failing kernel launch), and an injected
    latency spike shows up in the slot's busy accounting like any real
    slow step would.
    """
    for step in steps:
        t0 = time.perf_counter()
        if faults is not None:
            faults.before_step(wave_index, step.layer, step.slot)
        y = tw_gemm(a, step.tw, plan=step.plan)
        if step.epilogue is not None:
            y = apply_epilogue(y, step.epilogue, residual=a)
        a = y
        result.merge({step.label: time.perf_counter() - t0}, {step.label: 1})
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
            result = WaveResult(output=task.batch, started_at=time.perf_counter())
            results.append(result)
            try:
                result.output = _execute_steps(
                    task.batch,
                    task.steps,
                    result,
                    wave_index=task.index,
                    faults=task.faults,
                )
            except (KeyboardInterrupt, SystemExit):
                raise  # never swallow an interpreter-level shutdown
            except BaseException as exc:
                result.error = exc
                result.done_at = time.perf_counter()
                break  # stop pulling; the caller keeps the tail queued
            result.done_at = time.perf_counter()
        return results


def _run_segment(seg) -> tuple:
    """Execute one wave segment on a worker thread; never raises.

    ``seg`` is ``(ti, seg_idx, wave_index, a, steps, faults)``.  The reply
    is ``(ti, seg_idx, error, output, busy_by_label, gemms_by_label)``.
    """
    ti, seg_idx, wave_index, a, steps, faults = seg
    scratch = WaveResult(output=a)
    error = out = None
    try:
        out = _execute_steps(a, steps, scratch, wave_index=wave_index, faults=faults)
    except BaseException as exc:
        error = exc  # recorded, not raised: a worker thread must outlive any failure
    return (ti, seg_idx, error, out, scratch.busy_by_label, scratch.gemms_by_label)


#: segments a worker thread may hold at once: two, so a thread starts its
#: next segment without a round trip through the driver loop
_DEPTH = 2


class _Driver:
    """One ``run()`` of :class:`ThreadedExecutor`: a single-threaded event loop.

    Only the driver touches this state — no locks.  Contracts:

    - **lazy pull, bounded window**: a wave is pulled from the iterable
      only while fewer than ``limit()`` waves are in flight, and pulling
      stops after the first failure (the tail stays with the caller);
    - **segments**: a wave's steps group into contiguous per-worker
      segments; finishing one forwards the activations to the next
      segment's worker;
    - **bounded per-worker depth**: at most :data:`_DEPTH` segments are
      handed to a worker at once; the rest queue here;
    - **watchdog and respawn**: a wave older than ``watchdog_s`` fails
      with :class:`TimeoutError` and the worker holding it is respawned;
    - **late results are discarded**: a reply that is not its worker's
      oldest outstanding segment (an abandoned worker waking up) or that
      belongs to a terminal wave is dropped.
    """

    def __init__(self, ex: "ThreadedExecutor") -> None:
        self.ex = ex
        self.channel: queue.SimpleQueue = queue.SimpleQueue()  # this run's replies
        self.tasks: list[WaveTask] = []
        self.results: list[WaveResult] = []
        self.segments: list[list[tuple[int, list[WaveStep]]]] = []
        self.terminal: list[bool] = []
        self.worker_of: dict[int, int] = {}  # slot -> worker
        self.ready: dict[int, deque] = {}    # worker -> queued segments
        #: worker -> segments handed to it, oldest first: (ti, seg_idx, a)
        self.outstanding: dict[int, deque] = {}
        self.in_flight = 0
        self.failed = False

    def worker_for(self, slot: int) -> int:
        hit = self.worker_of.get(slot)
        if hit is not None:
            return hit
        idx = len(self.worker_of)
        w = idx if self.ex.workers is None else idx % self.ex.workers
        self.ex._ensure_workers(w + 1)
        self.worker_of[slot] = w
        self.ready.setdefault(w, deque())
        self.outstanding.setdefault(w, deque())
        return w

    def limit(self) -> int:
        if self.ex.inflight:
            return self.ex.inflight
        return 2 * max(1, len(self.ready))

    def drive(self, tasks) -> list[WaveResult]:
        it = iter(tasks)
        exhausted = False
        while True:
            # the failure check precedes the pull: a pulled task is always
            # launched, so every task handed out gets a result
            while not exhausted and not self.failed and self.in_flight < self.limit():
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
        segs: list[tuple[int, list[WaveStep]]] = []
        for step in task.steps:
            w = self.worker_for(step.slot)
            if not segs or segs[-1][0] != w:
                segs.append((w, []))
            segs[-1][1].append(step)
        self.tasks.append(task)
        self.results.append(WaveResult(output=task.batch, started_at=time.perf_counter()))
        self.segments.append(segs)
        self.terminal.append(False)
        self.in_flight += 1
        if segs:
            self.enqueue(segs[0][0], ti, 0, task.batch)
        else:  # degenerate zero-layer wave: pass the batch through
            self.finish(ti)

    def enqueue(self, w: int, ti: int, seg_idx: int, a) -> None:
        self.ready[w].append((ti, seg_idx, a))
        self.pump(w)

    def pump(self, w: int) -> None:
        """Hand worker ``w`` queued segments up to :data:`_DEPTH`."""
        while len(self.outstanding[w]) < _DEPTH and self.ready[w]:
            ti, seg_idx, a = self.ready[w].popleft()
            if self.terminal[ti]:
                continue  # watchdog already failed this wave; skip stale work
            task = self.tasks[ti]
            seg = (ti, seg_idx, task.index, a, self.segments[ti][seg_idx][1], task.faults)
            self.ex._queues[w].put((self.channel, w, seg))
            self.outstanding[w].append((ti, seg_idx, a))

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

        Segments handed to the worker behind the running one never ran:
        they go back to the front of its queue for the replacement.
        """
        out = self.outstanding[w]
        self.outstanding[w] = deque()
        self.ex._respawn(w)
        if out:
            ti = out.popleft()[0]
            if not self.terminal[ti]:
                self.results[ti].error = error
                self.finish(ti)
            self.ready[w].extendleft(reversed(out))
        self.pump(w)

    def handle(self, w: int, reply) -> None:
        ti, seg_idx, error, out, busy, gemms = reply
        held = self.outstanding.get(w)
        if not held or held[0][:2] != (ti, seg_idx):
            return  # late reply from an abandoned worker
        held.popleft()
        if not self.terminal[ti]:
            result = self.results[ti]
            result.merge(busy, gemms)
            if error is not None:
                result.error = error
                self.finish(ti)
            elif seg_idx + 1 < len(self.segments[ti]):
                self.enqueue(self.segments[ti][seg_idx + 1][0], ti, seg_idx + 1, out)
            else:
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
                (w for w, out in self.outstanding.items() if out and out[0][0] == ti),
                None,
            )
            if stalled_on is not None:
                self.crash(stalled_on, err)
            else:
                # queued behind a stalled sibling: fail it in place; its
                # queued segments are skipped, its late replies dropped
                result.error = err
                self.finish(ti)


class ThreadedExecutor(Executor):
    """One persistent daemon worker thread per device slot, run by :class:`_Driver`.

    Each worker thread reads ``(reply channel, worker index, segment)``
    items from its own queue and puts its reply on the run's channel, so
    persistent threads serve successive ``run`` calls (one at a time).  A
    respawn empties the stalled thread's queue, retires the thread (it
    exits after its current segment) and starts a fresh one on a fresh
    queue; its late reply, if any, no longer matches the driver's
    bookkeeping and is discarded.

    Parameters
    ----------
    workers:
        Cap on workers.  ``None`` (default) = one per device slot seen in
        the submitted waves (spawned on first use).  Fewer workers than
        slots folds slots onto workers round-robin.
    inflight:
        Bound on concurrently admitted waves (default ``2 ×`` the workers
        active in the run).
    watchdog_s:
        Wall-time bound on any single wave (default 60s); ``None``/``0``
        disables it.
    """

    name = "threaded"

    def __init__(
        self,
        workers: int | None = None,
        inflight: int | None = None,
        watchdog_s: float | None = 60.0,
    ) -> None:
        found = [
            f"{name} must be a positive int or None, got {value!r}"
            for name, value in (("workers", workers), ("inflight", inflight))
            if value is not None and (not isinstance(value, int) or value < 1)
        ]
        try:
            watchdog_ok = watchdog_s is None or (
                np.isfinite(float(watchdog_s)) and float(watchdog_s) >= 0
            )
        except (TypeError, ValueError):
            watchdog_ok = False
        if not watchdog_ok:
            found.append(
                f"watchdog_s must be finite and >= 0 (0/None disables), "
                f"got {watchdog_s!r}"
            )
        if found:
            # one error naming every invalid option, not the first one only
            raise ValueError(
                f"invalid options for executor {self.name!r}: " + "; ".join(found)
            )
        self.workers = workers
        self.inflight = inflight
        self.watchdog_s = float(watchdog_s) if watchdog_s else None  # 0 → disabled
        self._queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._spawn_lock = threading.Lock()

    def describe(self) -> str:
        w = self.workers if self.workers is not None else "per-slot"
        return f"{self.name}(workers={w})"

    def run(self, tasks) -> list[WaveResult]:
        return _Driver(self).drive(tasks)

    @staticmethod
    def _worker_loop(inbox: queue.SimpleQueue) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return  # close() or respawn retired this thread
            try:
                reply_to, w, seg = item
                reply_to.put((w, _run_segment(seg)))
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
    ``EXECUTORS.create("inline", workers=None)`` works while
    ``EXECUTORS.create("inline", workers=3)`` is an error, not a no-op.
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
    workers: int | None = None,
    inflight: int | None = None,
    watchdog_s: float | None = None,
) -> Executor:
    """Normalise an ``executor=`` argument to a ready :class:`Executor`.

    Accepts a ready instance (``workers``/``inflight``/``watchdog_s``
    must then be ``None`` — they belong to the instance), a registry
    name, or ``None`` (inline).  Only the options actually given are
    forwarded, and factories reject options they do not accept —
    ``resolve_executor("inline", workers=3)`` is an error, not a no-op.
    """
    if executor is None:
        executor = "inline"
    if isinstance(executor, Executor):
        if workers is not None or inflight is not None or watchdog_s is not None:
            raise ValueError(
                "pass workers/inflight/watchdog_s to the Executor "
                "constructor, not alongside a ready instance"
            )
        return executor
    if isinstance(executor, str):
        return EXECUTORS.create(
            executor, workers=workers, inflight=inflight, watchdog_s=watchdog_s
        )
    raise TypeError(
        f"executor must be an Executor instance, a registry name "
        f"({', '.join(available_executors())}) or None, "
        f"got {type(executor).__name__}"
    )
