"""``http_small``: 8-row requests over loopback HTTP to a server process.

The server (``httpserve.py``) runs ``serve_http`` on the ``inline``
executor in its own process, so the load generator does not compete for
its interpreter lock.  GEMM work per request is ~5 ms on a 2-core host,
so ``netserve``, ``wire``, ``ingress`` and ``server`` admission carry
much of each request; kernel changes should barely move this workload.

Three phases run in ``ROUNDS`` interleaved rounds over two keep-alive
connections: a Poisson open loop at ``LOW_RPS``, one at ``HIGH_RPS``, and
a closed loop of two callers.  Rates are absolute, so every commit
receives the same load; they sit near 20% and 40% of the closed-loop
throughput.  Interleaving spreads the host's background noise over all
three phases instead of letting it land on one.

The open-loop generator is the benchmark's own: arrival times come from the
seed, and every request is timed from its *scheduled* send time to its
terminal result, so a stalled generator cannot hide the backlog it
causes; how late each send actually went out is reported as
``loadgen.late_ms``.  Every ``ok`` output is checked against
``CompiledTWModel.run`` on the same rows as it arrives.
"""

from __future__ import annotations

import asyncio
import json
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common

ROWS = 8
POOL = 16
LOW_RPS, HIGH_RPS = 40.0, 80.0
#: latency limit for the ``high`` phase's printed SLO share
LIMIT_MS = 25.0
#: each open-loop phase runs this share of ``--seconds``; the closed loop the rest
LOW_SHARE, HIGH_SHARE = 0.3, 0.3
CONNECTIONS = 2
ROUNDS = 5
SETUPS = 5
#: share of ``--seconds`` spent on the in-process dense anchor before the load
ANCHOR_SHARE = 0.05


@dataclass
class Phase:
    """Per-request samples of one phase, all from the benchmark's own clock."""

    name: str
    sent: int = 0
    statuses: dict = field(default_factory=dict)
    latency_s: list = field(default_factory=list)
    ok_latency_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    queue_wait_s: list = field(default_factory=list)
    service_s: list = field(default_factory=list)
    hop_s: list = field(default_factory=list)
    rows_ok: int = 0
    mismatches: int = 0
    wall_s: float = 0.0

    def record(self, res, latency: float, ref: np.ndarray) -> None:
        """One terminal ``NetResult``: status, latency, server timings, output check.

        ``res`` is None for a request the transport could not complete
        (connection or protocol error, client timeout): it counts as
        ``refused``.
        """
        status = "refused" if res is None else res.status
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latency_s.append(latency)
        if status != "ok":
            return
        self.ok_latency_s.append(latency)
        self.rows_ok += res.rows
        self.queue_wait_s.append(res.queue_wait_s)
        self.service_s.append(res.service_s)
        self.hop_s.append(res.latency_s - res.server_latency_s)
        if not common.matches(res.output, ref):
            self.mismatches += 1

    def merge(self, part: "Phase") -> None:
        """Fold one round's samples into this phase."""
        for name in ("latency_s", "ok_latency_s", "late_s", "queue_wait_s", "service_s", "hop_s"):
            getattr(self, name).extend(getattr(part, name))
        for status, n in part.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + n
        self.sent += part.sent
        self.rows_ok += part.rows_ok
        self.mismatches += part.mismatches
        self.wall_s += part.wall_s

    @property
    def failed(self) -> int:
        return self.sent - self.statuses.get("ok", 0) + self.mismatches

    def summary(self) -> str:
        st = self.statuses
        named = ("ok", "failed", "shed", "expired", "refused")
        other = self.sent - sum(st.get(k, 0) for k in named)
        line = f"{self.name}: sent {self.sent}, " + ", ".join(f"{k} {st.get(k, 0)}" for k in named)
        line += f", other {other}, wrong {self.mismatches}"
        if self.latency_s:
            n = len(self.latency_s)
            line += (
                f"; p50 {common.percentile(self.latency_s, 50) * 1e3:.3f} ms (n={n}),"
                f" p99 {common.percentile(self.latency_s, 99) * 1e3:.3f} ms ({common.tail_note(n, 99)})"
            )
        return line


def _arrivals(seed: int, stream: int, rate: float, duration: float) -> np.ndarray:
    """Seeded Poisson arrival offsets covering ``[0, duration)``."""
    rng = np.random.default_rng([seed, 4, stream])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    times = np.cumsum(gaps)
    return times[times < duration]


async def _submit(transport, x):
    """One request's ``NetResult``, or None when the transport raised."""
    from repro.runtime.wire import ProtocolError

    try:
        return await transport.submit_nowait(x)
    except (OSError, asyncio.TimeoutError, ProtocolError):
        return None


async def open_loop(name, transport, xs, refs, picks, times) -> Phase:
    """Send request ``i`` at ``times[i]`` whatever is outstanding; time it from then."""
    phase = Phase(name)
    loop = asyncio.get_running_loop()
    tasks = []

    async def one(j: int, due: float) -> None:
        res = await _submit(transport, xs[j])
        phase.record(res, time.perf_counter() - due, refs[j])

    t0 = time.perf_counter() + 0.01
    for i, offset in enumerate(times):
        due = t0 + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_s.append(max(0.0, time.perf_counter() - due))
        tasks.append(loop.create_task(one(picks[i], due)))
    phase.sent = len(tasks)
    await asyncio.gather(*tasks)
    phase.wall_s = time.perf_counter() - t0
    return phase


async def closed_loop(transport, xs, refs, picks, seconds: float) -> Phase:
    """``CONNECTIONS`` callers, each sending its next request when the last returns."""
    phase = Phase("closed")
    t0 = time.perf_counter()
    end = t0 + seconds

    async def caller(k: int) -> None:
        while time.perf_counter() < end:
            j = picks[k]
            sent = time.perf_counter()
            phase.sent += 1
            res = await _submit(transport, xs[j])
            phase.record(res, time.perf_counter() - sent, refs[j])
            k += CONNECTIONS

    await asyncio.gather(*(caller(c) for c in range(CONNECTIONS)))
    phase.wall_s = time.perf_counter() - t0
    return phase


async def run_phases(port: int, xs, refs, seed: int, seconds: float) -> list[Phase]:
    """``ROUNDS`` rounds of: ``low`` open loop, ``high`` open loop, closed loop."""
    from repro.runtime.netclient import HttpLoadTransport

    picks = np.random.default_rng([seed, 3]).integers(0, len(xs), size=1 << 15)
    phases = [Phase("low"), Phase("high"), Phase("closed")]
    span = seconds / ROUNDS
    k = 0
    async with HttpLoadTransport("127.0.0.1", port, connections=CONNECTIONS) as transport:
        for r in range(ROUNDS):
            for i, (rate, share) in enumerate(((LOW_RPS, LOW_SHARE), (HIGH_RPS, HIGH_SHARE))):
                times = _arrivals(seed, r * 2 + i, rate, span * share)
                part = await open_loop(phases[i].name, transport, xs, refs, picks[k:], times)
                k += part.sent
                phases[i].merge(part)
            part = await closed_loop(
                transport, xs, refs, picks[k:], span * (1.0 - LOW_SHARE - HIGH_SHARE)
            )
            k += part.sent
            phases[2].merge(part)
    return phases


def end_to_end(phases, setups, anchor, rss_mb) -> dict:
    """The closed loop's throughput, the anchor, set-up and memory.

    Every workload reports every end-to-end metric.  Here ``rows_per_s`` is
    the closed loop's ok rows per second, which with uniform requests is
    ``ROWS`` x ``sat_rps``; ``speedup_vs_dense`` is the 8-row in-process
    anchor, the same estimator as ``batch_bert``'s at its request size.
    Open-loop latencies and the SLO share are printed (``report``) but
    are not metrics: at these rates they measure mostly cross-process
    wake-ups, which on a shared 2-vCPU host swing 25-40% run to run while
    throughput holds within 7%.
    """
    closed = phases[2]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "rows_per_s": (closed.rows_ok / closed.wall_s, "rows/s"),
        "sat_rps": (closed.statuses.get("ok", 0) / closed.wall_s, "1/s"),
        "speedup_vs_dense": (anchor.speedup(), "x"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def samples(phases) -> dict[str, list[float]]:
    """Every phase's per-request server timings and HTTP hops, pooled."""
    return {
        attr: [x for p in phases for x in getattr(p, attr)]
        for attr in ("queue_wait_s", "service_s", "hop_s")
    }


def report(phases, spans: dict | None) -> list[str]:
    """Phases, generator lateness, the SLO share and per-request server timings."""
    lines = [p.summary() for p in phases]
    lines.append(
        f"rates: low {LOW_RPS:g}/s, high {HIGH_RPS:g}/s, closed loop {CONNECTIONS} callers;"
        f" slo limit {LIMIT_MS:g} ms"
    )
    late = [x for p in phases[:2] for x in p.late_s]
    p99_late = common.percentile(late, 99) * 1e3
    flag = "  GENERATOR RAN LATE: latency figures are not valid" if p99_late > 0.2 * LIMIT_MS else ""
    lines.append(f"loadgen.late_ms p99 {p99_late:.3f} ms ({common.tail_note(len(late), 99)}){flag}")
    high = phases[1]
    in_slo = sum(1 for lat in high.ok_latency_s if lat * 1e3 <= LIMIT_MS)
    lines.append(f"slo_share.high {in_slo / max(1, high.sent):.4f} (ok within {LIMIT_MS:g} ms, n={high.sent})")
    for attr, vals in samples(phases).items():
        lines.append(
            f"{attr}: p50 {common.percentile(vals, 50) * 1e3:.3f} ms, "
            f"p99 {common.percentile(vals, 99) * 1e3:.3f} ms ({common.tail_note(len(vals), 99)})"
        )
    for name, row in (spans or {}).items():
        if name.startswith("kernels."):
            lines.append(f"server-side {name}: p50 {row['p50_ms']:.4f} ms ({row['calls']} calls)")
    return lines


def _start_server(seed: int, trace: bool) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("httpserve.py")),
         "--seed", str(seed), "--trace", str(int(trace))],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError(f"server process exited with code {proc.returncode}")
    return proc, int(json.loads(line)["port"])


def _stop_server(proc: subprocess.Popen) -> dict:
    """SIGTERM (graceful drain), then collect the server's closing summary."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    lines = [l for l in (out or "").splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def run(seed: int, seconds: float, tracer) -> dict:
    from repro.runtime.netclient import InferClient

    weights, names, epilogues = common.model_weights(seed)
    xs = common.payloads(seed, [ROWS] * POOL)
    setups = []
    proc = None
    try:
        # set-up: server process start, compile, warm(), first request served
        for _ in range(SETUPS):
            if proc is not None:
                _stop_server(proc)
            t0 = time.perf_counter()
            proc, port = _start_server(seed, tracer is not None)
            with InferClient("127.0.0.1", port) as client:
                first = client.infer(xs[0])
            setups.append(time.perf_counter() - t0)
            if first.status != "ok":
                raise RuntimeError(f"first request ended {first.status}")
        model = common.compile_model(weights, names, epilogues)
        refs = [model.run(x) for x in xs]
        if tracer is not None:
            from spans import install_kernel_wrappers

            install_kernel_wrappers(tracer, {id(l.tw): l.name for l in model.layers})
        anchor = common.Anchor()
        anchor.alternate(model, xs, refs, seconds * ANCHOR_SHARE, tracer)
        phases = asyncio.run(run_phases(port, xs, refs, seed, seconds * (1.0 - ANCHOR_SHARE)))
        rss = common.peak_rss_mb(proc.pid)
    finally:
        closing = _stop_server(proc) if proc is not None else {}
    result = {
        "attempted": sum(p.sent for p in phases) + anchor.attempted,
        "failed": sum(p.failed for p in phases) + anchor.failed,
        "metrics": end_to_end(phases, setups, anchor, rss),
        "report": report(phases, closing.get("spans")),
    }
    if tracer is not None:
        result["report"].append(common.run_breakdown(tracer))
        result["layers"] = common.layer_metrics(tracer, model, ROWS, 1)
        result["layers"] |= common.serving_layers(
            closing["spans"], closing["counters"], samples(phases)
        )
    return result
