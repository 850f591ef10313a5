"""Standalone load-generator harness for the serving ingress.

Drives a demo model with the seeded traffic shapes from
:mod:`repro.runtime.loadgen` — the same machinery ``repro serve
--continuous``, the ``server_ingress``/``server_http`` BENCH sections
and the CI smoke jobs use — and prints (or writes) the JSON-ready
result.  Two transports:

- ``--transport inproc`` (default): submit straight into a
  :class:`~repro.runtime.ingress.ServingLoop` in this process.
- ``--transport http``: the same load over real sockets through
  :class:`~repro.runtime.netclient.HttpLoadTransport`.  With ``--url``
  it drives an already-running ``repro serve --http`` server (the demo
  model flags must match the server's so request widths agree);
  without, it self-hosts one on an ephemeral port for the run.

    PYTHONPATH=src python benchmarks/loadgen.py --mode open \\
        --rate 100 --duration 2 --arrival poisson
    PYTHONPATH=src python benchmarks/loadgen.py --transport http \\
        --url http://127.0.0.1:8080 --mode open --rate 40 --duration 5

Open loop: requests arrive on a seeded Poisson/fixed schedule
regardless of completions, so percentiles reflect real queueing.
Closed loop: N clients issue back-to-back requests; the achieved rate
is the saturation throughput.  ``--mode both`` runs the closed loop
first and offers the open loop at ``--load-fraction`` of the measured
saturation rate.  Over HTTP, latencies are client-observed wall times
— network overhead included.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

import numpy as np

try:
    import repro
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro

from repro.api import demo_layer_stack
from repro.runtime.executor import available_executors
from repro.runtime.ingress import ServingLoop
from repro.runtime.loadgen import ARRIVALS, run_closed_loop, run_open_loop
from repro.runtime.netclient import HttpLoadTransport


def request_pool(args) -> list[np.ndarray]:
    """The seeded request set; derived from flags only, so a remote
    ``repro serve --http`` started with the same model flags agrees on K."""
    weights, _names = demo_layer_stack(
        args.model, scale=args.scale, blocks=args.blocks, seed=args.seed
    )
    rng = np.random.default_rng(args.seed + 1)
    return [
        rng.standard_normal((args.rows, weights[0].shape[0])).astype(args.dtype)
        for _ in range(32)
    ]


def compile_demo(args):
    weights, names = demo_layer_stack(
        args.model, scale=args.scale, blocks=args.blocks, seed=args.seed
    )
    return repro.compile(
        weights,
        pattern="tw",
        sparsity=args.sparsity,
        granularity=args.granularity,
        dtype=np.dtype(args.dtype),
        names=names,
    )


def server_overrides(args) -> dict:
    """``ServerConfig`` overrides from the flags; ``--max-wave-rows`` only
    when given, so the server config's own cap stays the default."""
    overrides = {"executor": args.executor}
    if args.max_wave_rows is not None:
        overrides["max_wave_rows"] = args.max_wave_rows
    return overrides


def build_loop(args) -> tuple[ServingLoop, list[np.ndarray]]:
    """Compile the demo model and wrap a fresh server in a ServingLoop."""
    loop = compile_demo(args).serve_async(
        stats_interval_s=args.stats_interval_s, **server_overrides(args)
    )
    loop.server.warm()
    return loop, request_pool(args)


async def run(args) -> dict:
    record: dict = {}
    if args.mode in ("closed", "both"):
        loop, xs = build_loop(args)
        async with loop:
            closed = await run_closed_loop(
                loop,
                lambda i: xs[i % len(xs)],
                clients=args.clients,
                requests_per_client=args.requests_per_client,
            )
        record["closed"] = closed.record()
        if args.mode == "both":
            args.rate = round(
                max(1.0, args.load_fraction * closed.achieved_rps), 1
            )
    if args.mode in ("open", "both"):
        loop, xs = build_loop(args)  # fresh server: no cross-shape carryover
        async with loop:
            opened = await run_open_loop(
                loop,
                lambda i: xs[i % len(xs)],
                rate=args.rate,
                duration_s=args.duration,
                arrival=args.arrival,
                seed=args.seed + 2,
                deadline_s=args.deadline_s,
            )
            record["server"] = loop.stats_record()
        record["open"] = opened.record()
    return record


async def run_http(args, url: str) -> dict:
    """The same traffic shapes, but through sockets against ``url``."""
    xs = request_pool(args)
    record: dict = {}
    if args.mode in ("closed", "both"):
        async with HttpLoadTransport.from_url(
            url, connections=args.connections
        ) as transport:
            closed = await run_closed_loop(
                transport,
                lambda i: xs[i % len(xs)],
                clients=args.clients,
                requests_per_client=args.requests_per_client,
            )
        record["closed"] = closed.record()
        if args.mode == "both":
            args.rate = round(
                max(1.0, args.load_fraction * closed.achieved_rps), 1
            )
    if args.mode in ("open", "both"):
        async with HttpLoadTransport.from_url(
            url, connections=args.connections
        ) as transport:
            opened = await run_open_loop(
                transport,
                lambda i: xs[i % len(xs)],
                rate=args.rate,
                duration_s=args.duration,
                arrival=args.arrival,
                seed=args.seed + 2,
                deadline_s=args.deadline_s,
            )
            record["server"] = await transport.stats()
        record["open"] = opened.record()
    return record


def run_transport(args) -> dict:
    if args.transport == "inproc":
        return asyncio.run(run(args))
    if args.url:
        return asyncio.run(run_http(args, args.url))
    # self-host: model + ServingLoop + NetServer on a daemon thread,
    # driven over loopback — the full network path in one command
    net = compile_demo(args).serve_http(
        port=0, stats_interval_s=args.stats_interval_s, **server_overrides(args)
    )
    with net:
        return asyncio.run(run_http(args, f"http://127.0.0.1:{net.port}"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="bert", choices=["bert", "vgg", "nmt"])
    parser.add_argument("--mode", default="both", choices=["open", "closed", "both"])
    parser.add_argument("--transport", default="inproc", choices=["inproc", "http"],
                        help="submit in-process, or over real sockets "
                             "through the HTTP front")
    parser.add_argument("--url", default=None, metavar="URL",
                        help="drive an already-running `repro serve --http` "
                             "server (--transport http; default: self-host "
                             "one on an ephemeral port)")
    parser.add_argument("--connections", type=int, default=16,
                        help="pooled keep-alive connections (--transport http)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="offered req/s (open loop)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="offered-load duration in seconds (open loop)")
    parser.add_argument("--arrival", default="poisson", choices=list(ARRIVALS))
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent callers (closed loop)")
    parser.add_argument("--requests-per-client", type=int, default=16)
    parser.add_argument("--load-fraction", type=float, default=0.4,
                        help="open-loop rate as a fraction of measured "
                             "saturation (--mode both)")
    parser.add_argument("--deadline-s", type=float, default=None)
    parser.add_argument("--executor", default="inline",
                        choices=available_executors())
    parser.add_argument("--sparsity", type=float, default=0.75)
    parser.add_argument("--granularity", "-G", type=int, default=64)
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--rows", type=int, default=8,
                        help="activation rows per request")
    parser.add_argument("--max-wave-rows", type=int, default=None,
                        help="rows per wave (default: the server config's cap)")
    parser.add_argument("--dtype", default="float32")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stats-interval-s", type=float, default=0.0)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the record to PATH")
    args = parser.parse_args()
    if args.url and args.transport != "http":
        parser.error("--url requires --transport http")
    if args.connections < 1:
        parser.error("--connections must be >= 1")

    record = run_transport(args)
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.json:
        args.json.write_text(text + "\n")
    ok = all(
        r.get("statuses", {}).get("ok", 0) == r.get("requests", 0)
        for key, r in record.items()
        if key in ("open", "closed")
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
