"""Shared pieces of the benchmark: the model, inputs, checks, statistics.

Every workload serves one model, the BERT-base encoder block at the
paper's reference point: ``demo_layer_stack("bert", blocks=1)`` pruned to
75% tile-wise sparsity at G=128 in float32, with ``bias_gelu`` fused on
``ffn-1``.  The weights, the epilogue bias, the request payloads and the
arrival schedules all derive from the run's ``--seed``; the program sees
only those generated inputs.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

import repro
from repro.api import demo_layer_stack
from repro.kernels.fusion import EpilogueSpec, apply_epilogue
from repro.kernels.masked import DTYPE_TOLERANCES

SPARSITY = 0.75
GRANULARITY = 128
HIDDEN = 768
#: float32 rounding compounds layer by layer, and sgemm rounding depends on
#: the batch shape, so outputs are compared max-normalised against
#: ``n_layers`` times the per-GEMM float32 bound
N_LAYERS = 6
TOLERANCE = DTYPE_TOLERANCES["float32"]["rtol"] * N_LAYERS


def model_weights(seed: int) -> tuple[list[np.ndarray], list[str], list]:
    """The seeded weight stack, layer names and per-layer epilogues."""
    weights, names = demo_layer_stack("bert", blocks=1, seed=seed, dtype=np.float32)
    ffn1 = names.index("block0.ffn-1")
    bias = np.random.default_rng([seed, 1]).standard_normal(weights[ffn1].shape[1])
    epilogues = [None] * len(weights)
    epilogues[ffn1] = EpilogueSpec("bias_gelu", bias=bias.astype(np.float32))
    return weights, names, epilogues


def compile_model(weights, names, epilogues):
    """``repro.compile`` at the reference point (the set-up's first step)."""
    return repro.compile(
        weights,
        pattern="tw",
        sparsity=SPARSITY,
        granularity=GRANULARITY,
        dtype=np.float32,
        epilogue=epilogues,
        names=names,
    )


def dense_chain(model, x: np.ndarray, tracer=None) -> np.ndarray:
    """The dense anchor: ``x @ W`` on the masked weights, same dtype and epilogues.

    With a ``tracer``, each layer's product is a ``kernels.dense.<layer>`` span.
    """
    a = x
    for layer in model.layers:
        if tracer is None:
            y = a @ layer.masked_dense()
        else:
            with tracer.span(f"kernels.dense.{layer.name}"):
                y = a @ layer.masked_dense()
        a = apply_epilogue(y, layer.epilogue, residual=a) if layer.epilogue else y
    return a


def payloads(seed: int, rows: list[int]) -> list[np.ndarray]:
    """One seeded float32 activation block per entry of ``rows``."""
    rng = np.random.default_rng([seed, 2])
    return [rng.standard_normal((r, HIDDEN)).astype(np.float32) for r in rows]


def matches(out, ref: np.ndarray) -> bool:
    """Max-normalised comparison within :data:`TOLERANCE`."""
    if out is None or out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(out.astype(np.float64) - ref).max()) <= TOLERANCE * scale


class Anchor:
    """``run()`` against the dense anchor, one caller, alternating call by call.

    Every workload's ``speedup_vs_dense`` is :meth:`speedup`: the median
    dense call time over the median ``run()`` call time on the same
    inputs, with the order of the two flipped every pair.
    """

    def __init__(self) -> None:
        self.tw_s: list[float] = []
        self.dense_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def alternate(self, model, xs, refs, seconds: float, tracer=None) -> None:
        """Pairs on ``xs`` for ``seconds``; each TW output is checked against
        ``refs`` and the dense output against the TW output."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            i = len(self.tw_s)
            x = xs[i % len(xs)]
            times, outs = [0.0, 0.0], [None, None]
            for which in ((0, 1) if i % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                if which == 1:
                    outs[1] = dense_chain(model, x, tracer)
                elif tracer is None:
                    outs[0] = model.run(x)
                else:
                    with tracer.span("api.run"):
                        outs[0] = model.run(x)
                times[which] = time.perf_counter() - t0
            self.tw_s.append(times[0])
            self.dense_s.append(times[1])
            self.attempted += 2
            self.failed += (not matches(outs[0], refs[i % len(xs)])) + (not matches(outs[1], outs[0]))

    def tw_median(self) -> float:
        return statistics.median(self.tw_s)

    def speedup(self) -> float:
        return statistics.median(self.dense_s) / self.tw_median()


# ---------------------------------------------------------------------- #
# per-layer metrics shared by every workload's traced run
# ---------------------------------------------------------------------- #
def flops_exec_over_useful(layer) -> float:
    """Executed over useful multiply-adds for one layer's compiled plan.

    ``tw_gemm`` pads every width group back to the full ``K`` depth, so a
    group executes ``K x (summed kept widths)`` per activation row where
    its tiles need only ``kept_k x kept_n`` each.  Independent of ``m``.
    """
    plan = next(iter(layer.plans.values()))
    k = layer.shape[0]
    executed = useful = 0
    for group in plan.execution_order():
        for tid in group.tile_ids:
            tile = layer.tw.tiles[tid]
            if tile.kept_k and tile.kept_n:
                executed += k * tile.kept_n
                useful += tile.kept_k * tile.kept_n
    return executed / useful


def modeled_speedup(model, layer, m: int) -> float:
    """Cost-model dense/TW GEMM time for one layer at ``m`` rows (``price()``)."""
    single = repro.api.CompiledTWModel(
        [layer],
        pattern=model.pattern,
        sparsity=model.sparsity,
        granularity=model.granularity,
        engine=model.engine,
        placement=model.placement,
    )
    return single.price(m=m).gemm_speedup


def layer_metrics(tracer, model, m: int, compiles: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics every workload reports from its traced run.

    Set-up stages are per compile; kernel times are medians per call
    over the ``run()`` calls alternated with the dense anchor (``api.run``
    spans), so TW and dense are timed on the same inputs in the same phase.
    """
    def per_compile(name):
        return sum(tracer.durations(name)) * 1e3 / compiles

    def p50_ms(name, under=None):
        d = tracer.durations(name, under)
        return statistics.median(d) * 1e3 if d else float("nan")

    out = {
        "core.prune_ms": (per_compile("core.prune"), "ms"),
        "formats.compact_ms": (per_compile("formats.compact"), "ms"),
        "runtime.scheduler.plan_ms": (per_compile("runtime.scheduler.plan"), "ms"),
        "kernels.epilogue_ms": (p50_ms("kernels.epilogue", "api.run"), "ms"),
    }
    for layer in model.layers:
        tw = p50_ms(f"kernels.tw_gemm.{layer.name}", "api.run")
        dense = p50_ms(f"kernels.dense.{layer.name}")
        out[f"kernels.tw_gemm_ms.{layer.name}"] = (tw, "ms")
        out[f"kernels.dense_ms.{layer.name}"] = (dense, "ms")
        out[f"kernels.tw_vs_dense.{layer.name}"] = (dense / tw, "x")
        out[f"kernels.flops_exec_over_useful.{layer.name}"] = (
            flops_exec_over_useful(layer), "ratio",
        )
        out[f"gpu.modeled_speedup.{layer.name}"] = (modeled_speedup(model, layer, m), "x")
    return out


def server_counters(server) -> dict:
    """Unrounded ``ServerStats`` counters of a ``TWModelServer`` (JSON-ready).

    ``stats_record()`` rounds busy shares to 0.1%, which would make the
    per-layer figures step-valued; these are the counters it derives them from.
    """
    st = server.stats
    return {
        "waves": st.batches,
        "rows": st.rows,
        "busy_s": st.busy_s,
        "wall_s": st.wall_time_s,
        "slot_busy_s": [busy for _label, busy in sorted(st.device_busy_s.items())],
        "hits": st.format_hits + st.plan_hits,
        "lookups": st.format_hits + st.format_misses + st.plan_hits + st.plan_misses,
    }


def serving_layers(spans: dict, counters: dict, samples: dict) -> dict[str, tuple[float, str]]:
    """The serving layers' per-layer metrics.

    ``spans`` is :meth:`spans.Tracer.summary` of the process that ran the
    server, ``counters`` :func:`server_counters` at the end of the run, and
    ``samples`` the per-request ``queue_wait_s``, ``service_s`` and
    ``hop_s`` (client latency minus the server's ``X-Latency-Ms``) lists.
    """
    def p50(name, scale):
        row = spans.get(name)
        return row["p50_ms"] * scale if row else float("nan")

    flush = spans.get("runtime.server.flush", {"total_ms": float("nan"), "calls": 1})
    out = {
        "runtime.server.submit_us": (p50("runtime.server.submit", 1e3), "us"),
        "runtime.server.flush_ms": (p50("runtime.server.flush", 1.0), "ms"),
        "runtime.server.waves": (float(counters["waves"]), "count"),
        "runtime.server.wave_rows": (counters["rows"] / max(1, counters["waves"]), "rows"),
    }
    for name, key in (("runtime.server.queue_wait_ms", "queue_wait_s"),
                      ("runtime.server.service_ms", "service_s")):
        for q in (50, 99):
            out[f"{name}.p{q}"] = (percentile(samples[key], q) * 1e3, "ms")
    out |= {
        "runtime.server.cache_hit_rate": (counters["hits"] / max(1, counters["lookups"]), "ratio"),
        "runtime.executor.warm_ms": (p50("runtime.executor.warm", 1.0), "ms"),
        "runtime.executor.overhead_ms": (
            (flush["total_ms"] - counters["busy_s"] * 1e3) / flush["calls"], "ms",
        ),
    }
    for slot, busy in enumerate(counters["slot_busy_s"]):
        out[f"runtime.executor.slot_busy_pct.{slot}"] = (
            100.0 * busy / counters["wall_s"] if counters["wall_s"] else 0.0, "%",
        )
    out |= {
        "runtime.wire.decode_us": (p50("runtime.wire.decode", 1e3), "us"),
        "runtime.wire.encode_us": (p50("runtime.wire.encode", 1e3), "us"),
        "runtime.netserve.hop_ms": (percentile(samples["hop_s"], 50) * 1e3, "ms"),
    }
    return out


def run_breakdown(tracer) -> str:
    """Mean ``run()`` call time beside the self time of the calls it makes."""
    runs = {i for i, s in enumerate(tracer.spans) if s[0] == "api.run"}
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in runs) * 1e3
    gemm = epi = 0.0
    for name, start, end, parent in tracer.spans:
        if parent in runs:
            if name.startswith("kernels.tw_gemm."):
                gemm += (end - start) * 1e3
            elif name == "kernels.epilogue":
                epi += (end - start) * 1e3
    n = max(1, len(runs))
    gemm, epi = gemm / n, epi / n
    return (
        f"run() per call {total / n:.3f} ms = tw_gemm {gemm:.3f} ms"
        f" + epilogue {epi:.3f} ms + unaccounted {total / n - gemm - epi:.3f} ms"
        f" ({len(runs)} calls)"
    )


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """The ``q``-th percentile of the run's own samples (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_note(n: int, q: float) -> str:
    """Sample count beside a percentile, with the samples beyond it."""
    beyond = int(n * (100.0 - q) / 100.0)
    flag = "" if beyond >= 10 else " (fewer than 10 beyond)"
    return f"n={n}, {beyond} beyond{flag}"


# ---------------------------------------------------------------------- #
# host fingerprint and memory
# ---------------------------------------------------------------------- #
def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it exports the query."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> dict:
    """Host facts a result depends on; results compare only within one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS.

    Called once set-up is done, so ``peak_rss_mb`` is the run's peak:
    memory set-up keeps resident still counts, its transients do not.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int) -> float:
    """Peak RSS of process ``pid`` (``VmHWM``) in MiB; 0.0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
