"""The ``http_small`` server process: ``serve_http`` on the ``inline`` executor.

    python3 twbench/httpserve.py --seed 1 --trace 0

Compiles the seeded model, starts a ``NetServer`` on an ephemeral
loopback port and, once warm, resets its peak-RSS mark and prints
``{"port": N}``.  On SIGTERM it drains and prints one closing JSON line:
the server's unrounded stats counters and, with ``--trace 1``, a summary
of the spans recorded in this process (server admission and flushes,
wire decode/encode, warm-up, kernels).  Running
the server in its own process keeps the load generator off its
interpreter lock.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    install_kernel_wrappers,
    install_server_wrappers,
    install_setup_wrappers,
)


async def serve(seed: int, tracer) -> dict:
    weights, names, epilogues = common.model_weights(seed)
    model = common.compile_model(weights, names, epilogues)
    if tracer is not None:
        install_kernel_wrappers(tracer, {id(l.tw): l.name for l in model.layers})
        install_server_wrappers(tracer)
    net = model.serve_http(port=0, executor="inline")
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    await net.start()
    common.reset_peak_rss()
    print(json.dumps({"port": net.port}), flush=True)
    serving = asyncio.create_task(net.serve_forever())
    await stop.wait()
    await net.close()
    serving.cancel()
    try:
        await serving
    except asyncio.CancelledError:
        pass
    return common.server_counters(net.loop.server)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_setup_wrappers(tracer)
    closing = {"counters": asyncio.run(serve(args.seed, tracer))}
    if tracer is not None:
        closing["spans"] = tracer.summary()
    print(json.dumps(closing), flush=True)


if __name__ == "__main__":
    main()
