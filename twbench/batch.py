"""``batch_bert``: offline batches through ``CompiledTWModel.run``.

Kernels (``tw_gemm`` and the fused epilogue) do nearly all the work and
no serving module runs, so a kernel change shows here and a serving
change must read as no change.

- ``low``: one caller in a closed loop on 128-row activations, alternating
  call by call between ``run()`` and the dense anchor (``x @ W`` on
  ``CompiledLayer.masked_dense()``, same dtype and epilogue).
- ``high``: two callers in a closed loop, ``run()`` only; with one BLAS
  thread each this is the 2-core host's batch capacity, and it shows
  kernel code that holds the interpreter lock.

The two phases alternate over ``ROUNDS`` rounds.  ``rows_per_s`` is 128
rows over the median ``low`` ``run()`` time, ``speedup_vs_dense`` the
median dense time over it, and ``sat_rps`` the median over rounds of the
``high`` phase's calls per second.

The traced run ends with a short pass of the same 128-row inputs through
``serve_http`` in this process, after the end-to-end metrics are taken:
every workload reports every per-layer metric, so the serving layers'
figures here are those of batch-sized requests.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import common

ROWS = 128
POOL = 4
SETUPS = 5
ROUNDS = 5
#: length of the traced run's serving pass
SERVE_SECONDS = 2.0


def serving_pass(model, xs, refs, tracer) -> tuple[dict, int, int]:
    """Sequential 128-row requests over loopback HTTP to ``serve_http`` here.

    Returns (serving per-layer metrics, requests attempted, requests failed).
    """
    from repro.runtime.netclient import InferClient
    from spans import install_server_wrappers

    install_server_wrappers(tracer)
    samples = {"queue_wait_s": [], "service_s": [], "hop_s": []}
    attempted = failed = 0
    with model.serve_http(port=0, executor="inline") as net:
        with InferClient("127.0.0.1", net.port) as client:
            end = time.perf_counter() + SERVE_SECONDS
            while time.perf_counter() < end:
                j = attempted % POOL
                res = client.infer(xs[j])
                attempted += 1
                if res.status != "ok" or not common.matches(res.output, refs[j]):
                    failed += 1
                    continue
                samples["queue_wait_s"].append(res.queue_wait_s)
                samples["service_s"].append(res.service_s)
                samples["hop_s"].append(res.latency_s - res.server_latency_s)
        counters = common.server_counters(net.loop.server)
    return common.serving_layers(tracer.summary(), counters, samples), attempted, failed


def run(seed: int, seconds: float, tracer) -> dict:
    weights, names, epilogues = common.model_weights(seed)
    xs = common.payloads(seed, [ROWS] * POOL)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        model = common.compile_model(weights, names, epilogues)
        model.run(xs[0][:1])
        setups.append(time.perf_counter() - t0)
    refs = [model.run(x) for x in xs]
    if tracer is not None:
        from spans import install_kernel_wrappers

        install_kernel_wrappers(tracer, {id(l.tw): l.name for l in model.layers})
    common.dense_chain(model, xs[0][:1])  # memoise the masked weights
    common.reset_peak_rss()

    anchor = common.Anchor()
    lat_high, rates_high = [], []
    lock = threading.Lock()
    errors = [0]

    def caller(c: int, end: float) -> None:
        j = c
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            out = model.run(xs[j % POOL])
            dt = time.perf_counter() - t0
            ok = common.matches(out, refs[j % POOL])
            with lock:
                lat_high.append(dt)
                errors[0] += not ok
            j += 2

    span = seconds / ROUNDS
    for _ in range(ROUNDS):
        anchor.alternate(model, xs, refs, span / 2, tracer)
        done = len(lat_high)
        t0 = time.perf_counter()
        threads = [threading.Thread(target=caller, args=(c, t0 + span / 2)) for c in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rates_high.append((len(lat_high) - done) / (time.perf_counter() - t0))

    tw_med = anchor.tw_median()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rows_per_s": (ROWS / tw_med, "rows/s"),
        "sat_rps": (statistics.median(rates_high), "1/s"),
        "speedup_vs_dense": (anchor.speedup(), "x"),
        "peak_rss_mb": (common.peak_rss_mb(os.getpid()), "MB"),
    }
    report = [
        f"low: {len(anchor.tw_s)} run() + {len(anchor.dense_s)} dense calls at {ROWS} rows, one caller",
        f"high: {len(lat_high)} run() calls at {ROWS} rows, two callers",
        f"low: run() p50 {tw_med * 1e3:.3f} ms, p99 {common.percentile(anchor.tw_s, 99) * 1e3:.3f} ms"
        f" ({common.tail_note(len(anchor.tw_s), 99)})",
        f"high: run() p50 {common.percentile(lat_high, 50) * 1e3:.3f} ms,"
        f" p99 {common.percentile(lat_high, 99) * 1e3:.3f} ms ({common.tail_note(len(lat_high), 99)})",
    ]
    result = {
        "attempted": anchor.attempted + len(lat_high),
        "failed": anchor.failed + errors[0],
        "metrics": metrics,
        "report": report,
    }
    if tracer is not None:
        result["layers"] = common.layer_metrics(tracer, model, ROWS, SETUPS)
        result["report"].append(common.run_breakdown(tracer))
        serving, attempted, failed = serving_pass(model, xs, refs, tracer)
        result["layers"] |= serving
        result["attempted"] += attempted
        result["failed"] += failed
        result["report"].append(
            f"serving pass: {attempted} requests at {ROWS} rows over loopback HTTP, {failed} failed;"
            f" server percentiles over {common.tail_note(attempted - failed, 99)}"
        )
    return result
