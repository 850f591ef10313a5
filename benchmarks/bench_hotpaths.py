"""Hot-path perf record: prune step, SpMM, formats, engine, kernels, serving.

Times the vectorised production paths against their scalar reference
oracles at BERT-base scale and writes ``BENCH_hotpaths.json``, the perf
trajectory ``check_bench.py`` diffs a fresh run against:

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
  one-kernel-per-tile ``tw_gemm_reference`` oracle and against dense
  ``a @ W`` on the masked weights in the same dtype (``dense_ms``, the
  baseline the paper argues against), on BERT-base FFN geometry
  (768×3072) at serving batch sizes and dtypes.  The fast path replays
  the weight's memoised tile operands, as a serving loop does.
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
- **server_parallel** — the BERT-base encoder layer stack compiled through
  ``repro.compile`` and served on one device (row ``single``, on
  ``inline``) and on two replicas (row ``replicated_x2``, on ``inline``
  and ``threaded``) in 64-row
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

Every section but the two serving ones is a row table (:func:`row_table`):
a list of cases, each with its identity fields, the named callables to
time and any extra fields.  ``reference_*`` columns time the seed scalar
implementations (kept in-tree as oracles); the other ``*_ms`` columns time
the production paths, except ``dense_ms``, which times numpy.  All are
wall-clock, best-of-N, in milliseconds.

Each section records its own provenance: ``host`` (twbench's
``fingerprint()``: CPU count, BLAS vendor, version and threads, numpy,
python), ``commit`` (``git describe --always --dirty``) and ``quick``.
A timing compares only against one from the same host.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out F]
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --sections tw_gemm,fusion

``--quick`` runs a reduced sweep for the ``perf_smoke`` pytest marker.
``--sections`` runs only the named sections (comma-separated) and merges
them into the existing ``--out`` file, so one subsystem's numbers can be
refreshed without re-timing the whole sweep; every other section keeps
its own ``host`` and ``commit``.
This file is a standalone script, not a pytest-benchmark module, so it can
run in CI without the benchmark plugin.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BERT_LAYERS = 12
BERT_K, BERT_N = 768, 3072
SPEEDUP = {"speedup": ("reference_ms", "vectorized_ms")}


def _best_of(fn, reps: int) -> float:
    """Best wall-clock of ``reps`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def row_table(section: str, cases, reps: int, ratios: dict | None = None) -> list[dict]:
    """Time every case of a section: one printed line and one row per case.

    A case is a dict of identity and extra fields plus ``timed``, a
    ``{column: callable}`` map; each callable is timed best-of-``reps``
    (a case's own ``reps`` overrides it) and recorded to four significant
    figures.  ``ratios`` maps a ratio column to its ``(numerator,
    denominator)`` timed columns.  ``cases`` may be a generator, so a case
    builds its inputs only when its turn comes.
    """
    rows = []
    for case in cases:
        row = {k: v for k, v in case.items() if k not in ("timed", "reps")}
        ms = {
            col: _best_of(fn, case.get("reps", reps))
            for col, fn in case["timed"].items()
        }
        row.update((col, float(f"{t:.4g}")) for col, t in ms.items())
        for col, (num, den) in (ratios or {}).items():
            row[col] = round(ms[num] / ms[den], 2)
        print(f"{section:<16s}" + "  ".join(f"{k}={v}" for k, v in row.items()))
        rows.append(row)
    return rows


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

    def cases():
        for sparsity, g in configs:
            # fresh score matrices per config — a pruning schedule recomputes
            # Taylor scores every stage, so the data is always newly written
            mats = [
                np.abs(rng.standard_normal((BERT_K, BERT_N)))
                for _ in range(BERT_LAYERS)
            ]
            cfg = TWPruneConfig(granularity=g)
            yield {"sparsity": sparsity, "granularity": g, "timed": {
                "reference_ms": lambda: tw_prune_step_reference(mats, sparsity, cfg),
                "vectorized_ms": lambda: tw_prune_step(mats, sparsity, cfg),
            }}

    return {
        "scale": f"{BERT_LAYERS}x({BERT_K}x{BERT_N})",
        "configs": row_table("prune_step", cases(), 1, SPEEDUP),
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
    cases = [
        {"format": "csr", "shape": [k, n, b], "nnz": csr.nnz, "timed": {
            "reference_ms": lambda: spmm_rowwise_reference(csr, rhs),
            "vectorized_ms": lambda: csr_spmm(csr, rhs),
        }},
        {"format": "csc", "shape": [k, n, b], "nnz": csc.nnz, "timed": {
            "reference_ms": lambda: spmm_colwise_reference(lhs, csc),
            "vectorized_ms": lambda: csc_left_spmm(lhs, csc),
        }},
    ]
    return {"configs": row_table("spmm", cases, 3, SPEEDUP)}


def bench_transpose(quick: bool) -> dict:
    from repro.kernels.transpose import blocked_transpose, blocked_transpose_reference

    rng = np.random.default_rng(2)
    # small: the production path's single-copy shortcut applies; large: the
    # 2-D blocked loop *is* the fastest known implementation (panel and
    # reshape variants measured ~2.5x slower), so parity is the expectation
    small = rng.standard_normal((128, 128))
    large = rng.standard_normal((1024, 768) if quick else (4096, 3072))
    cases = [
        {"shape": list(x.shape), "reps": reps, "timed": {
            "reference_ms": lambda x=x: blocked_transpose_reference(x),
            "vectorized_ms": lambda x=x: blocked_transpose(x),
        }}
        for x, reps in [(small, 20), (large, 5 if quick else 3)]
    ]
    return {"configs": row_table("transpose", cases, 3, SPEEDUP)}


def bench_formats(quick: bool) -> dict:
    from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
    from repro.formats.csr import CSRMatrix
    from repro.formats.tiled import TiledTWMatrix

    rng = np.random.default_rng(3)
    w = rng.standard_normal((BERT_N, BERT_K)) * (rng.random((BERT_N, BERT_K)) < 0.1)
    dense = rng.standard_normal((BERT_K, BERT_N))
    step = tw_prune_step([np.abs(dense)], 0.75, TWPruneConfig(granularity=128))
    cases = [
        {"format": "csr", "shape": [BERT_N, BERT_K], "timed": {
            "build_ms": lambda: CSRMatrix.from_dense(w),
        }},
        {"format": "tiled", "shape": [BERT_K, BERT_N], "timed": {
            "build_ms": lambda: TiledTWMatrix.from_masks(
                dense, 128, step.col_keeps[0], step.row_masks[0]
            ),
        }},
    ]
    return {"configs": row_table("formats", cases, 2 if quick else 3)}


def bench_end_to_end(quick: bool) -> dict:
    from repro.models.registry import bert_base_gemm_shapes
    from repro.gpu.engine import EngineConfig, InferenceEngine, LayerPlan

    plans = [
        LayerPlan(shape=s, pattern="tw", sparsity=0.75)
        for s in bert_base_gemm_shapes()
    ]
    config = EngineConfig()
    engine = InferenceEngine()
    engine.end_to_end("bert", plans, config)  # prime the memos
    cases = [{"model": "bert", "timed": {
        "cold_ms": lambda: InferenceEngine().end_to_end("bert", plans, config),
        "warm_ms": lambda: engine.end_to_end("bert", plans, config),
    }}]
    return {
        "configs": row_table(
            "end_to_end", cases, 3, {"memo_speedup": ("cold_ms", "warm_ms")}
        )
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

    def cases():
        for m, g, sparsity, dtype in configs:
            step = tw_prune_step(
                [np.abs(dense)], sparsity, TWPruneConfig(granularity=g)
            )
            tw = TiledTWMatrix.from_masks(
                dense, g, step.col_keeps[0], step.row_masks[0], dtype=np.dtype(dtype)
            )
            w = tw.to_dense()  # the masked weights, same dtype, built untimed
            a = rng.standard_normal((m, BERT_K)).astype(dtype)
            tw_gemm(a, tw)  # build the tile operands once, as a server's warm() does
            yield {
                "m": m, "granularity": g, "sparsity": sparsity, "dtype": dtype,
                "n_tiles": tw.n_tiles, "reps": 2 if m > 1024 else 5, "timed": {
                    "reference_ms": lambda: tw_gemm_reference(a, tw),
                    "batched_ms": lambda: tw_gemm(a, tw),
                    "dense_ms": lambda: a @ w,
                },
            }

    return {
        "scale": f"{BERT_K}x{BERT_N}",
        "configs": row_table("tw_gemm", cases(), 5, {
            "speedup": ("reference_ms", "batched_ms"),
            "speedup_vs_dense": ("dense_ms", "batched_ms"),
        }),
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
    # one placement per row (labels keep the BENCH_hotpaths.json keys);
    # `single` has one slot, so only the oracle runs
    placements = {
        "single": (Placement((V100,)), ("inline",)),
        "replicated_x2": (Placement((V100, V100)), ("inline", "threaded")),
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
            # otherwise one giant wave pins two replicas to one slot
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
    """Recovery overhead of the fault-tolerant serving path."""
    import repro
    from repro.api import demo_layer_stack
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
    # (retry/bisect work), not partial service.  warm() builds the tile
    # operands without running a wave, so the timed waves start at index 0.
    scenarios = {
        # no injector at all: the baseline the overhead column compares to
        "fault_free": None,
        # two timed waves each fail once and retry at fresh wave indices
        "transient_exceptions": "exception:wave=0;exception:wave=1",
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
                max_wave_rows=2 * req_rows, max_retries=2, faults=spec,
            ))
            server.warm()
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
    reduced-precision kernels, so fp16 and int8 weights are storage only.
    Their tile operands are upcast or dequantised to float32 once
    (memoised), and activations and outputs are float32
    (:func:`~repro.kernels.masked.activation_dtype`), so every dtype runs
    at about float32 speed.  The *device* story the paper targets lives in
    ``modeled_device_us``: the cost model's dtype axis (tensor-core
    calibration for fp16/int8, element size scaling the memory legs),
    where reduced precision wins ≥1.3x.  The memory win
    (``payload_compression_vs_fp32``) is real on any host.
    """
    from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
    from repro.formats.tiled import TiledTWMatrix
    from repro.gpu.tw_kernel import TWExecutionOptions, tw_gemm_cost
    from repro.kernels.masked import activation_dtype, tw_gemm
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
    payload = {d: sum(t.data.nbytes for t in tws[d].tiles) for d in dtypes}

    def cases():
        for m in ms:
            a64 = rng.standard_normal((m, BERT_K))
            want = tw_gemm(a64, tws["float64"])
            modeled = {
                d: tw_gemm_cost(m, tws[d], options=TWExecutionOptions(
                    engine=engine_for_dtype(d), dtype_bytes=_DTYPE_BYTES[d]
                )).total_us
                for d in dtypes
            }
            for d in dtypes:
                tw = tws[d]
                a = a64.astype(activation_dtype(d))
                # also builds the operand memo, as a server's warm() does
                got = tw_gemm(a, tw).astype(np.float64)
                yield {
                    "m": m, "granularity": g, "sparsity": sparsity, "dtype": d,
                    "modeled_device_us": round(modeled[d], 1),
                    "modeled_speedup_vs_fp32": round(modeled["float32"] / modeled[d], 2),
                    "payload_bytes": payload[d],
                    "payload_compression_vs_fp32": round(
                        payload["float32"] / payload[d], 2
                    ),
                    "max_rel_err_vs_float64": float(
                        np.abs(got - want).max() / np.abs(want).max()
                    ),
                    "timed": {"batched_ms": lambda: tw_gemm(a, tw)},
                }

    return {
        "scale": f"{BERT_K}x{BERT_N} G={g} s={sparsity}",
        "configs": row_table("mixed_precision", cases(), 5),
        "note": (
            "batched_ms is host wall-clock (NumPy BLAS has no "
            "reduced-precision kernels: fp16/int8 weights are storage and "
            "compute in float32, so dtypes tie); "
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
    epilogues = [
        ("bias_gelu", BERT_N, False),
        ("bias_layernorm", BERT_K, False),
        ("dropout_residual_layernorm", BERT_K, True),
    ]
    rng = np.random.default_rng(9)

    def cases():
        for m in ms:
            for name, n, needs_res in epilogues:
                spec = dataclasses.replace(
                    resolve_epilogue_spec(name, n=n),
                    bias=rng.standard_normal(n),
                    gamma=1.0 + 0.1 * rng.standard_normal(n),
                    beta=0.1 * rng.standard_normal(n),
                )
                y = rng.standard_normal((m, n))
                y_f = np.asfortranarray(y)
                res = rng.standard_normal((m, n)) if needs_res else None
                fused = apply_epilogue(y, spec, residual=res)
                ref = apply_epilogue(y, spec, residual=res, reference=True)
                yield {
                    "m": m, "shape": f"{m}x{n}", "epilogue": name,
                    "bit_identical_float64": bool(
                        np.array_equal(fused, ref)
                        and np.array_equal(apply_epilogue(y_f, spec, residual=res), fused)
                    ),
                    "timed": {
                        "fused_ms": lambda: apply_epilogue(y, spec, residual=res),
                        "fused_fortran_ms": lambda: apply_epilogue(y_f, spec, residual=res),
                        "reference_unfused_ms": lambda: apply_epilogue(
                            y, spec, residual=res, reference=True
                        ),
                    },
                }

    rows = row_table(
        "fusion", cases(), 5, {"speedup_vs_unfused": ("reference_unfused_ms", "fused_ms")}
    )
    if not all(r["bit_identical_float64"] for r in rows):
        raise AssertionError("fused epilogue diverged from its float64 oracle")
    return {"scale": f"BERT-base tails ({BERT_K}/{BERT_N} wide)", "configs": rows}


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
    "server_parallel": bench_parallel_server,
    "server_faults": bench_faults_server,
}


def provenance(quick: bool) -> dict:
    """What every section records besides its rows: host, commit, sweep."""
    spec = importlib.util.spec_from_file_location(
        "twbench_common", REPO / "twbench" / "common.py"
    )
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=REPO, capture_output=True, text=True,
    ).stdout.strip()
    return {"host": common.fingerprint(), "commit": commit, "quick": quick}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_hotpaths.json")
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

    # a partial run refreshes sections in place so the out file stays a
    # complete record, minus sections no longer in SECTIONS; a full run
    # starts from scratch
    record: dict = {}
    if args.sections is not None and args.out.exists():
        old = json.loads(args.out.read_text())
        record.update((name, old[name]) for name in SECTIONS if name in old)
    stamp = provenance(args.quick)
    for name in SECTIONS:  # canonical order regardless of --sections order
        if name in selected:
            record[name] = {**stamp, **SECTIONS[name](args.quick)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out} ({len(selected)}/{len(SECTIONS)} sections)")


if __name__ == "__main__":
    main()
