"""Hot-path perf-regression benchmark: prune step, SpMM, formats, engine.

Times the vectorised production paths against their scalar reference
oracles at BERT-base scale and writes ``BENCH_hotpaths.json`` so every
future PR has a perf trajectory to regress against:

- **prune_step** — the global TW pruning step over the 12 BERT-base FFN
  expansion matrices (``768×3072``), swept over schedule stages (the
  gradual schedule starts at low sparsity, where the scalar per-unit loops
  hurt most) and granularities from the paper's design space (Fig. 9).
  Reference = ``tw_prune_step_reference`` (the seed implementation, kept
  verbatim).  Fresh score matrices per config, as a pruning schedule
  produces them.
- **spmm** — CSR/CSC sparse×dense products against the scalar row-/column-
  wise references.
- **transpose** — the panel-blocked transpose against the square-block
  scalar-loop reference.
- **formats** — CSR / TiledTW construction times (no scalar oracle exists;
  recorded for trajectory only).
- **end_to_end** — ``InferenceEngine.end_to_end`` over the BERT-base plan
  set, cold engine vs warm engine (the per-engine dense-cost and synthetic
  tile-stats memos).
- **tw_gemm** — the plan-ordered gather-GEMM TW executor against the
  one-kernel-per-tile ``tw_gemm_reference`` oracle on BERT-base FFN
  geometry (768×3072), at serving batch sizes and dtypes.  The fast
  path replays the weight's memoised tile operands, as a serving loop does.
- **mixed_precision** — the TW GEMM at BERT-base FFN serving shapes under
  ``float32`` / ``float16`` / ``int8`` storage: measured host wall-clock
  (honest: host BLAS has no reduced-precision kernels, so dtypes tie),
  the cost model's modeled device time on its dtype axis (tensor-core
  calibration + element-size-scaled memory legs, where fp16/int8 clear
  the 1.3x bar), and the real payload compression.
- **fusion** — the fused epilogue consumers (``bias_gelu``,
  ``bias_layernorm``, ``dropout_residual_layernorm``) against their
  unfused ``*_reference`` compositions at BERT-base tail shapes, with
  float64 bit-identity asserted before timing; ``fused_fortran_ms``
  times the fused consumer on the Fortran-ordered input ``tw_gemm``
  returns.
- **server** — cold request latency (``repro.compile`` → ``serve()`` →
  first request) against a warm request, which only pays the GEMMs, and
  micro-batched vs sequential throughput.
- **server_parallel** — the BERT-base encoder layer stack compiled through
  ``repro.compile`` and served under each placement (``single`` on
  ``inline``; ``replicated`` x2 on ``inline`` and ``threaded``) in 64-row
  waves of four 16-row requests: median flush
  wall-time per executor, the measured ``wall_speedup_vs_inline`` (no
  floor), per-slot GEMM counts, and the busy/critical-path ``headroom``
  from measured slot busy time.  Every output is asserted bit-identical
  to the first placement's.
- **server_faults** — recovery overhead of the fault-tolerant flush path:
  the same BERT-base request stream served fault-free and under seeded
  deterministic fault schedules (transient exceptions retried at fresh
  wave indices, latency spikes absorbed in-wave, retry-budget exhaustion
  driving the bisection path).  Every scenario must end with all requests
  ``ok``, so ``flush_wall_ms`` measures the retry/bisect work itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out F]
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --sections server,tw_gemm

``--quick`` runs a reduced sweep for the ``perf_smoke`` pytest marker.
``--sections`` runs only the named sections (comma-separated) and merges
them into the existing ``--out`` file, so one subsystem's numbers can be
refreshed without re-timing the whole sweep.
This file is a standalone script, not a pytest-benchmark module, so it can
run in CI without the benchmark plugin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

BERT_LAYERS = 12
BERT_K, BERT_N = 768, 3072


def _best_of(fn, reps: int) -> float:
    """Best wall-clock of ``reps`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_prune(quick: bool) -> dict:
    from repro.core.tile_sparsity import (
        TWPruneConfig,
        tw_prune_step,
        tw_prune_step_reference,
    )

    if quick:
        configs = [(0.75, 128), (0.25, 32)]
    else:
        configs = [(0.25, 16), (0.25, 32), (0.5, 32), (0.75, 32), (0.75, 128)]
    rng = np.random.default_rng(0)
    rows = []
    for sparsity, g in configs:
        # fresh score matrices per config — a pruning schedule recomputes
        # Taylor scores every stage, so the data is always newly written
        mats = [
            np.abs(rng.standard_normal((BERT_K, BERT_N))) for _ in range(BERT_LAYERS)
        ]
        cfg = TWPruneConfig(granularity=g)
        ref_ms = _best_of(lambda: tw_prune_step_reference(mats, sparsity, cfg), 1)
        vec_ms = _best_of(lambda: tw_prune_step(mats, sparsity, cfg), 1)
        rows.append(
            {
                "sparsity": sparsity,
                "granularity": g,
                "reference_ms": round(ref_ms, 1),
                "vectorized_ms": round(vec_ms, 1),
                "speedup": round(ref_ms / vec_ms, 1),
            }
        )
        print(
            f"prune  s={sparsity:.2f} G={g:<3d} ref {ref_ms:8.1f}ms  "
            f"vec {vec_ms:7.1f}ms  {ref_ms / vec_ms:5.1f}x"
        )
    return {
        "scale": f"{BERT_LAYERS}x({BERT_K}x{BERT_N})",
        "configs": rows,
        "headline_speedup": max(r["speedup"] for r in rows),
    }


def bench_spmm(quick: bool) -> dict:
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix
    from repro.kernels.spmm import (
        csc_left_spmm,
        csr_spmm,
        spmm_colwise_reference,
        spmm_rowwise_reference,
    )

    rng = np.random.default_rng(1)
    k, n, b = (768, 768, 64) if quick else (BERT_N, BERT_K, 128)
    w = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.1)
    csr = CSRMatrix.from_dense(w)
    csc = CSCMatrix.from_dense(w.T)
    rhs = rng.standard_normal((n, b))
    lhs = rng.standard_normal((b, n))

    ref_r = _best_of(lambda: spmm_rowwise_reference(csr, rhs), 1)
    vec_r = _best_of(lambda: csr_spmm(csr, rhs), 3)
    ref_c = _best_of(lambda: spmm_colwise_reference(lhs, csc), 1)
    vec_c = _best_of(lambda: csc_left_spmm(lhs, csc), 3)
    print(f"spmm   csr ref {ref_r:8.1f}ms  vec {vec_r:7.1f}ms  {ref_r / vec_r:5.1f}x")
    print(f"spmm   csc ref {ref_c:8.1f}ms  vec {vec_c:7.1f}ms  {ref_c / vec_c:5.1f}x")
    return {
        "shape": [k, n, b],
        "nnz": csr.nnz,
        "csr": {
            "reference_ms": round(ref_r, 2),
            "vectorized_ms": round(vec_r, 2),
            "speedup": round(ref_r / vec_r, 1),
        },
        "csc": {
            "reference_ms": round(ref_c, 2),
            "vectorized_ms": round(vec_c, 2),
            "speedup": round(ref_c / vec_c, 1),
        },
    }


def bench_transpose(quick: bool) -> dict:
    from repro.kernels.transpose import blocked_transpose, blocked_transpose_reference

    rng = np.random.default_rng(2)
    # small: the production path's single-copy shortcut applies; large: the
    # 2-D blocked loop *is* the fastest known implementation (panel and
    # reshape variants measured ~2.5x slower), so parity is the expectation
    small = rng.standard_normal((128, 128))
    m, n = (1024, 768) if quick else (4096, 3072)
    large = rng.standard_normal((m, n))
    reps = 5 if quick else 3
    ref_s = _best_of(lambda: blocked_transpose_reference(small), 20)
    vec_s = _best_of(lambda: blocked_transpose(small), 20)
    ref_l = _best_of(lambda: blocked_transpose_reference(large), reps)
    vec_l = _best_of(lambda: blocked_transpose(large), reps)
    print(f"transp sml ref {ref_s:8.2f}ms  vec {vec_s:7.2f}ms  {ref_s / vec_s:5.1f}x")
    print(f"transp lrg ref {ref_l:8.1f}ms  vec {vec_l:7.1f}ms  {ref_l / vec_l:5.1f}x")
    return {
        "small": {
            "shape": [128, 128],
            "reference_ms": round(ref_s, 3),
            "vectorized_ms": round(vec_s, 3),
            "speedup": round(ref_s / vec_s, 1),
        },
        "large": {
            "shape": [m, n],
            "reference_ms": round(ref_l, 2),
            "vectorized_ms": round(vec_l, 2),
            "speedup": round(ref_l / vec_l, 1),
        },
    }


def bench_formats(quick: bool) -> dict:
    from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
    from repro.formats.csr import CSRMatrix
    from repro.formats.tiled import TiledTWMatrix

    rng = np.random.default_rng(3)
    w = rng.standard_normal((BERT_N, BERT_K)) * (rng.random((BERT_N, BERT_K)) < 0.1)
    csr_ms = _best_of(lambda: CSRMatrix.from_dense(w), 2 if quick else 3)

    dense = rng.standard_normal((BERT_K, BERT_N))
    step = tw_prune_step([np.abs(dense)], 0.75, TWPruneConfig(granularity=128))
    tw_ms = _best_of(
        lambda: TiledTWMatrix.from_masks(
            dense, 128, step.col_keeps[0], step.row_masks[0]
        ),
        2 if quick else 3,
    )
    print(f"format csr_from_dense {csr_ms:7.1f}ms   tiled_from_masks {tw_ms:7.1f}ms")
    return {
        "csr_from_dense_ms": round(csr_ms, 2),
        "tiled_from_masks_ms": round(tw_ms, 2),
    }


def bench_end_to_end(quick: bool) -> dict:
    from repro.models.registry import bert_base_gemm_shapes
    from repro.gpu.engine import EngineConfig, InferenceEngine, LayerPlan

    shapes = bert_base_gemm_shapes()
    plans = [LayerPlan(shape=s, pattern="tw", sparsity=0.75) for s in shapes]
    config = EngineConfig()

    def cold() -> None:
        InferenceEngine().end_to_end("bert", plans, config)

    engine = InferenceEngine()
    engine.end_to_end("bert", plans, config)  # prime the memos

    cold_ms = _best_of(cold, 2 if quick else 3)
    warm_ms = _best_of(lambda: engine.end_to_end("bert", plans, config), 3)
    print(f"e2e    cold {cold_ms:9.2f}ms  warm {warm_ms:7.2f}ms  {cold_ms / warm_ms:5.1f}x")
    return {
        "model": "bert",
        "cold_ms": round(cold_ms, 2),
        "warm_ms": round(warm_ms, 2),
        "memo_speedup": round(cold_ms / warm_ms, 1),
    }


def bench_tw_gemm(quick: bool) -> dict:
    from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
    from repro.formats.tiled import TiledTWMatrix
    from repro.kernels.masked import tw_gemm, tw_gemm_reference

    if quick:
        configs = [(128, 8, 0.5, "float64")]
    else:
        configs = [
            (128, 8, 0.5, "float64"),
            (128, 8, 0.5, "float32"),
            (64, 16, 0.75, "float64"),
            (256, 16, 0.75, "float32"),
            (8192, 128, 0.75, "float64"),
        ]
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((BERT_K, BERT_N))
    rows = []
    steps = {}
    for m, g, sparsity, dtype in configs:
        if (g, sparsity) not in steps:
            steps[(g, sparsity)] = tw_prune_step(
                [np.abs(dense)], sparsity, TWPruneConfig(granularity=g)
            )
        step = steps[(g, sparsity)]
        tw = TiledTWMatrix.from_masks(
            dense, g, step.col_keeps[0], step.row_masks[0], dtype=np.dtype(dtype)
        )
        a = rng.standard_normal((m, BERT_K)).astype(dtype)
        tw_gemm(a, tw)  # build the tile operands once, as a server's warm() does
        reps = 1 if m > 1024 else 3
        ref_ms = _best_of(lambda: tw_gemm_reference(a, tw), reps)
        bat_ms = _best_of(lambda: tw_gemm(a, tw), reps + 2)
        rows.append(
            {
                "m": m,
                "granularity": g,
                "sparsity": sparsity,
                "dtype": dtype,
                "n_tiles": tw.n_tiles,
                "reference_ms": round(ref_ms, 2),
                "batched_ms": round(bat_ms, 2),
                "speedup": round(ref_ms / bat_ms, 1),
            }
        )
        print(
            f"twgemm m={m:<5d} G={g:<3d} s={sparsity:.2f} {dtype:<7s} "
            f"ref {ref_ms:8.2f}ms  bat {bat_ms:7.2f}ms  {ref_ms / bat_ms:5.1f}x"
        )
    return {
        "scale": f"{BERT_K}x{BERT_N}",
        "configs": rows,
        "headline_speedup": max(r["speedup"] for r in rows),
    }


def bench_server(quick: bool) -> dict:
    import repro

    n_layers, k, g, sparsity = 4, 768, 16, 0.75
    rng = np.random.default_rng(5)
    weights = [rng.standard_normal((k, k)) for _ in range(n_layers)]

    x = rng.standard_normal((32, k)).astype(np.float32)
    # cold: the offline compile, then serve() and the first request
    t0 = time.perf_counter()
    model = repro.compile(weights, sparsity=sparsity, granularity=g, dtype=np.float32)
    server = model.serve()
    server.serve(x)
    cold_ms = (time.perf_counter() - t0) * 1e3
    warm_ms = _best_of(lambda: server.serve(x), 3 if quick else 5)
    # the server runs the compiled formats themselves
    assert np.array_equal(server.serve(x).output, model.run(x))
    assert server.stats.format_hits >= n_layers

    n_req, req_rows = (16, 8) if quick else (64, 8)
    reqs = [rng.standard_normal((req_rows, k)).astype(np.float32) for _ in range(n_req)]
    seq_server = model.serve()
    seq_server.warm()
    t0 = time.perf_counter()
    for r in reqs:
        seq_server.serve(r)
    seq_s = time.perf_counter() - t0
    mb_server = model.serve()
    mb_server.warm()
    t0 = time.perf_counter()
    for r in reqs:
        mb_server.submit(r)
    mb_server.flush()
    mb_s = time.perf_counter() - t0
    total_rows = n_req * req_rows
    print(
        f"server cold {cold_ms:8.2f}ms  warm {warm_ms:7.2f}ms  "
        f"{cold_ms / warm_ms:5.1f}x amortized"
    )
    print(
        f"server seq {total_rows / seq_s:9.0f} rows/s  microbatched "
        f"{total_rows / mb_s:9.0f} rows/s  {seq_s / mb_s:5.1f}x"
    )
    return {
        "model": f"{n_layers}x({k}x{k})",
        "granularity": g,
        "sparsity": sparsity,
        "dtype": "float32",
        "cold_request_ms": round(cold_ms, 2),
        "warm_request_ms": round(warm_ms, 2),
        "cache_amortization": round(cold_ms / warm_ms, 1),
        "throughput": {
            "requests": n_req,
            "rows_per_request": req_rows,
            "sequential_rows_per_s": round(total_rows / seq_s),
            "microbatched_rows_per_s": round(total_rows / mb_s),
            "microbatch_speedup": round(seq_s / mb_s, 1),
        },
    }


def _timed_flushes(server, reqs, repeats: int):
    """Median flush wall-time over ``repeats`` drains of ``reqs``.

    One warm request first builds the tile operands; each timed drain
    starts from fresh stats.  Returns the median seconds, the last drain's
    stats and the last drain's stacked outputs.
    """
    from repro.runtime.server import ServerStats

    server.serve(reqs[0])
    walls = []
    for _ in range(repeats):
        server.stats = ServerStats()
        for r in reqs:
            server.submit(r)
        served = server.flush()
        walls.append(server.stats.wall_time_s)
    out = np.concatenate([req.output for req in served])
    return float(np.median(walls)), server.stats, out


def _parallel_case(
    blocks: int, n_req: int, g: int, sparsity: float, dtype: str, repeats: int
) -> dict:
    import repro
    from repro.api import demo_layer_stack
    from repro.gpu.device import V100
    from repro.runtime.placement import Placement
    from repro.runtime.server import ServerConfig

    req_rows = 16
    weights, names = demo_layer_stack("bert", blocks=blocks, seed=8, dtype=np.float32)
    # one placement per row; `single` has one slot, so only the oracle runs
    placements = {
        "single": (Placement("single", (V100,)), ("inline",)),
        "replicated_x2": (Placement("replicated", (V100, V100)), ("inline", "threaded")),
    }
    rng = np.random.default_rng(9)
    reqs = [
        rng.standard_normal((req_rows, weights[0].shape[0])).astype(dtype)
        for _ in range(n_req)
    ]
    rows = {}
    reference_out = None
    for label, (placement, executors) in placements.items():
        model = repro.compile(
            weights, pattern="tw", sparsity=sparsity, granularity=g,
            dtype=np.dtype(dtype), names=names, placement=placement,
        )
        row = {}
        for executor in executors:
            # 4 requests per wave, so the queue splits into several waves —
            # otherwise one giant wave pins a replicated placement to one slot
            config = ServerConfig(
                placement=placement, max_wave_rows=4 * req_rows, executor=executor
            )
            with model.serve(config) as server:
                wall_s, st, out = _timed_flushes(server, reqs, repeats)
            if reference_out is None:
                reference_out = out
            else:
                # neither the executor nor the placement may change results
                assert np.array_equal(out, reference_out), (label, executor)
            row[f"{executor}_wall_ms"] = round(wall_s * 1e3, 2)
        critical = st.critical_path_s()
        if "threaded_wall_ms" in row:
            # a measured ratio with no floor: at 64-row waves on a small
            # host the second slot may not pay for its hand-offs
            row["wall_speedup_vs_inline"] = round(
                row["inline_wall_ms"] / row["threaded_wall_ms"], 2
            )
        row.update({
            "gemm_busy_ms": round(st.busy_s * 1e3, 2),
            "critical_path_ms": round(critical * 1e3, 2),
            "headroom": round(st.busy_s / critical, 2) if critical else 1.0,
            "device_gemms": dict(sorted(st.device_gemms.items())),
        })
        rows[label] = row
        print(
            f"parall x{blocks} {label:<17s} "
            + "  ".join(f"{e} {row[f'{e}_wall_ms']:8.2f}ms" for e in executors)
            + (f"  {row['wall_speedup_vs_inline']:5.2f}x measured"
               if "wall_speedup_vs_inline" in row else "")
            + f"  (headroom {row['headroom']:.2f}x)"
        )
    return {
        "model": f"bert encoder x{blocks} (768/3072)",
        "requests": n_req,
        "rows_per_request": req_rows,
        "placements": rows,
    }


def bench_parallel_server(quick: bool) -> dict:
    g, sparsity, dtype, repeats = 64, 0.75, "float32", 7
    # the small case runs in BOTH sweeps so `check_bench --quick` (the
    # bench_gate pytest marker) still gates it against the full baseline;
    # rows are matched by the "model" identity field, never by position
    cases = [(1, 8)] if quick else [(1, 8), (2, 32)]
    return {
        "granularity": g,
        "sparsity": sparsity,
        "dtype": dtype,
        "flushes_per_median": repeats,
        "configs": [
            _parallel_case(blocks, n_req, g, sparsity, dtype, repeats)
            for blocks, n_req in cases
        ],
    }


def bench_faults_server(quick: bool) -> dict:
    """Recovery overhead of the fault-tolerant serving path (ISSUE 6)."""
    import repro
    from repro.api import demo_layer_stack
    from repro.runtime.faults import resolve_faults
    from repro.runtime.server import ServerConfig

    g, sparsity, dtype = 64, 0.75, "float32"
    n_req, req_rows = (4, 16) if quick else (8, 16)
    weights, names = demo_layer_stack("bert", blocks=1, seed=8, dtype=np.float32)
    model = repro.compile(
        weights, pattern="tw", sparsity=sparsity, granularity=g,
        dtype=np.dtype(dtype), names=names,
    )
    rng = np.random.default_rng(10)
    reqs = [
        rng.standard_normal((req_rows, weights[0].shape[0])).astype(dtype)
        for _ in range(n_req)
    ]

    # every scenario must end all-ok, so flush_wall_ms measures *recovery*
    # (retry/bisect work), not partial service.  The injector attaches
    # after the warm-up serve: the warm wave is index 0, the timed waves
    # start at 1, and fault budgets are untouched by the warm-up.
    scenarios = {
        # no injector at all: the baseline the overhead column compares to
        "fault_free": None,
        # two timed waves each fail once and retry at fresh wave indices
        "transient_exceptions": "exception:wave=1;exception:wave=2",
        # probabilistic 1 ms spikes: absorbed in-wave, never retried
        "latency_spikes": "latency:rate=0.5:duration=0.001:seed=1",
        # one wave burns the whole retry budget (3 fires), gets bisected,
        # and the exhausted max_fires budget lets the halves complete
        "retry_exhaustion_bisect": "exception:max_fires=3",
    }

    reps = 2 if quick else 3
    rows = {}
    base_ms = None
    for label, spec in scenarios.items():

        def once():
            server = model.serve(ServerConfig(
                max_wave_rows=2 * req_rows, max_retries=2,
            ))
            server.serve(reqs[0])  # warm: tile operands built (wave 0)
            object.__setattr__(server.config, "faults", resolve_faults(spec))
            for r in reqs:
                server.submit(r)
            t0 = time.perf_counter()
            served = server.flush()
            ms = (time.perf_counter() - t0) * 1e3
            assert all(s.status == "ok" for s in served), label
            return ms, server.stats, server.config.faults

        best, stats, faults = min(
            (once() for _ in range(reps)), key=lambda t: t[0]
        )
        row = {
            "flush_wall_ms": round(best, 2),
            "retries": stats.retries,
            "requeues": stats.requeues,
            "poisoned": stats.poisoned,
            "faults_fired": faults.total_fired if faults else 0,
        }
        if label == "fault_free":
            base_ms = best
        else:
            row["overhead_vs_fault_free"] = round(best / base_ms, 2)
        rows[label] = row
        print(
            f"faults {label:<24s} flush {best:8.2f}ms  "
            f"retries {stats.retries}  fired {row['faults_fired']}"
        )
    return {
        "model": "bert encoder x1 (768/3072)",
        "granularity": g,
        "sparsity": sparsity,
        "dtype": dtype,
        "requests": n_req,
        "rows_per_request": req_rows,
        "executor": "inline",
        "note": (
            "all scenarios end all-ok: transient faults retry at fresh "
            "wave indices, exhausted budgets bisect; flush_wall_ms "
            "includes the recovery work"
        ),
        "scenarios": rows,
    }


def bench_mixed_precision(quick: bool) -> dict:
    """Mixed-precision TW GEMM at BERT-base FFN serving shapes.

    ``batched_ms`` is honest host wall-clock: NumPy's BLAS has no
    reduced-precision kernels, so fp16/int8 run at ~fp32 speed (fp16 often
    slower — it upcasts per group to accumulate in fp32).  The *device*
    story the paper targets lives in ``modeled_device_us``: the cost
    model's dtype axis (tensor-core calibration for fp16/int8, element
    size scaling the memory legs), where reduced precision wins ≥1.3x.
    The memory win (``payload_compression_vs_fp32``) is real on any host.
    """
    from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
    from repro.formats.tiled import TiledTWMatrix
    from repro.gpu.tw_kernel import TWExecutionOptions, tw_gemm_cost
    from repro.kernels.masked import tw_gemm
    from repro.gpu.engine import _DTYPE_BYTES, engine_for_dtype

    g, sparsity = 64, 0.75
    ms = [128] if quick else [128, 512]
    dtypes = ["float32", "float16", "int8"]
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((BERT_K, BERT_N))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    tws = {
        d: TiledTWMatrix.from_masks(
            dense, g, step.col_keeps[0], step.row_masks[0], dtype=np.dtype(d)
        )
        for d in ["float64", *dtypes]
    }
    fp32_payload = sum(t.data.nbytes for t in tws["float32"].tiles)
    rows = []
    for m in ms:
        a64 = rng.standard_normal((m, BERT_K))
        want = tw_gemm(a64, tws["float64"])
        scale_ref = float(np.abs(want).max())
        modeled = {}
        for d in dtypes:
            opts = TWExecutionOptions(
                engine=engine_for_dtype(d), dtype_bytes=_DTYPE_BYTES[d]
            )
            modeled[d] = tw_gemm_cost(m, tws[d], options=opts).total_us
        for d in dtypes:
            tw = tws[d]
            act = "float32" if d == "int8" else d
            a = a64.astype(act)
            tw_gemm(a, tw)  # build the operand memo, as a server's warm() does
            bat_ms = _best_of(lambda: tw_gemm(a, tw), 5)
            got = tw_gemm(a, tw).astype(np.float64)
            payload = sum(t.data.nbytes for t in tw.tiles)
            rows.append(
                {
                    "m": m,
                    "granularity": g,
                    "sparsity": sparsity,
                    "dtype": d,
                    "batched_ms": round(bat_ms, 2),
                    "modeled_device_us": round(modeled[d], 1),
                    "modeled_speedup_vs_fp32": round(
                        modeled["float32"] / modeled[d], 2
                    ),
                    "payload_bytes": payload,
                    "payload_compression_vs_fp32": round(fp32_payload / payload, 2),
                    "max_rel_err_vs_float64": float(
                        np.abs(got - want).max() / scale_ref
                    ),
                }
            )
            print(
                f"mixedp m={m:<4d} {d:<8s} bat {bat_ms:6.2f}ms  "
                f"modeled {modeled[d]:8.1f}us "
                f"({modeled['float32'] / modeled[d]:4.2f}x vs fp32)  "
                f"payload {payload / 1e6:5.2f}MB"
            )
    return {
        "scale": f"{BERT_K}x{BERT_N} G={g} s={sparsity}",
        "configs": rows,
        "headline_modeled_speedup_vs_fp32": max(
            r["modeled_speedup_vs_fp32"] for r in rows
        ),
        "note": (
            "batched_ms is host wall-clock (NumPy BLAS has no "
            "reduced-precision kernels, so dtypes tie); "
            "modeled_device_us prices the same GEMM on the simulated "
            "V100's dtype axis, where fp16/int8 clear the 1.3x bar"
        ),
    }


def bench_fusion(quick: bool) -> dict:
    """Fused epilogues vs their unfused ``*_reference`` compositions.

    BERT-base serving shapes: the FFN activation tail (``m x 3072``
    bias+GeLU) and the block tail (``m x 768`` layernorm variants).  The
    fused consumers run in-place ufunc chains (~2 temporaries); the
    references compose the standalone kernels (~9 temporaries), which is
    exactly the memory traffic fusion removes.  Float64 outputs are
    asserted bit-identical before timing, and the fused output on a
    Fortran-ordered copy of the input (the layout every ``tw_gemm`` output
    has), timed as ``fused_fortran_ms``, bit-identical to the C-ordered one.
    """
    import dataclasses

    from repro.kernels.fusion import apply_epilogue, resolve_epilogue_spec

    ms = [128] if quick else [128, 512]
    cases = [
        ("bias_gelu", BERT_N, False),
        ("bias_layernorm", BERT_K, False),
        ("dropout_residual_layernorm", BERT_K, True),
    ]
    rng = np.random.default_rng(9)
    rows = []
    for m in ms:
        for name, n, needs_res in cases:
            spec = resolve_epilogue_spec(name, n=n)
            spec = dataclasses.replace(
                spec,
                bias=rng.standard_normal(n),
                gamma=1.0 + 0.1 * rng.standard_normal(n),
                beta=0.1 * rng.standard_normal(n),
            )
            y = rng.standard_normal((m, n))
            residual = rng.standard_normal((m, n)) if needs_res else None
            fused = apply_epilogue(y, spec, residual=residual)
            ref = apply_epilogue(y, spec, residual=residual, reference=True)
            y_f = np.asfortranarray(y)
            identical = bool(
                np.array_equal(fused, ref)
                and np.array_equal(apply_epilogue(y_f, spec, residual=residual), fused)
            )
            fused_ms = _best_of(
                lambda: apply_epilogue(y, spec, residual=residual), 5
            )
            fused_fortran_ms = _best_of(
                lambda: apply_epilogue(y_f, spec, residual=residual), 5
            )
            ref_ms = _best_of(
                lambda: apply_epilogue(
                    y, spec, residual=residual, reference=True
                ),
                5,
            )
            rows.append(
                {
                    "m": m,
                    "shape": f"{m}x{n}",
                    "epilogue": name,
                    "fused_ms": round(fused_ms, 3),
                    "fused_fortran_ms": round(fused_fortran_ms, 3),
                    "reference_unfused_ms": round(ref_ms, 3),
                    "speedup_vs_unfused": round(ref_ms / fused_ms, 2),
                    "bit_identical_float64": identical,
                }
            )
            print(
                f"fusion m={m:<4d} {name:<27s} fused {fused_ms:6.3f}ms  "
                f"(Fortran input {fused_fortran_ms:6.3f}ms)  "
                f"unfused {ref_ms:6.3f}ms  {ref_ms / fused_ms:4.2f}x  "
                f"{'bit-identical' if identical else 'MISMATCH'}"
            )
    if not all(r["bit_identical_float64"] for r in rows):
        raise AssertionError("fused epilogue diverged from its float64 oracle")
    return {
        "scale": f"BERT-base tails ({BERT_K}/{BERT_N} wide)",
        "configs": rows,
        "headline_speedup": max(r["speedup_vs_unfused"] for r in rows),
    }


#: section name -> bench function; ``--sections`` validates against this
SECTIONS = {
    "prune_step": bench_prune,
    "spmm": bench_spmm,
    "transpose": bench_transpose,
    "formats": bench_formats,
    "end_to_end": bench_end_to_end,
    "tw_gemm": bench_tw_gemm,
    "mixed_precision": bench_mixed_precision,
    "fusion": bench_fusion,
    "server": bench_server,
    "server_parallel": bench_parallel_server,
    "server_faults": bench_faults_server,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json",
    )
    parser.add_argument(
        "--sections",
        type=str,
        default=None,
        metavar="A,B,...",
        help=(
            "run only these sections (comma-separated, from: "
            + ", ".join(SECTIONS)
            + ") and merge them into the existing --out file"
        ),
    )
    args = parser.parse_args()

    if args.sections is None:
        selected = list(SECTIONS)
    else:
        selected = [s.strip() for s in args.sections.split(",") if s.strip()]
        unknown = sorted(set(selected) - set(SECTIONS))
        if unknown:
            parser.error(
                f"unknown sections: {', '.join(unknown)} "
                f"(choose from: {', '.join(SECTIONS)})"
            )
        if not selected:
            parser.error("--sections given but no section names parsed")

    record: dict = {"meta": {
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "note": (
            "reference_* columns time the seed scalar implementations "
            "(kept in-tree as oracles); vectorized_* time the production "
            "paths. Wall-clock, best-of-N."
        ),
    }}
    # a partial run refreshes sections in place so the out file stays a
    # complete record, minus sections no longer in SECTIONS; a full run
    # starts from scratch
    if args.sections is not None:
        record["meta"]["sections"] = selected
        if args.out.exists():
            old = json.loads(args.out.read_text())
            record.update((name, old[name]) for name in SECTIONS if name in old)
    for name in SECTIONS:  # canonical order regardless of --sections order
        if name in selected:
            record[name] = SECTIONS[name](args.quick)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out} ({len(selected)}/{len(SECTIONS)} sections)")


if __name__ == "__main__":
    main()
