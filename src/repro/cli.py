"""Command-line interface over the one front door (:func:`repro.compile`).

Usage (``python -m repro <command> ...``):

- ``prune``   — tile-wise-prune a weight matrix (``.npy``) and save the
  compiled TW model (``.npz``, read back by ``repro.load``) plus sparsity
  statistics;
- ``tune``    — train one of the paper's Mini* tasks dense, then run the
  training-time pipeline (``repro.tune``: gradual schedule → importance →
  prune → optional TEW overlay → fine-tune) and print the per-stage
  sparsity/metric trajectory;
- ``latency`` — price a (model, pattern, sparsity) combination on the
  simulated V100, GEMM-only and end-to-end;
- ``sweep``   — print a speedup-vs-sparsity table for one pattern;
- ``serve``   — stand up a :class:`~repro.runtime.server.TWModelServer`
  over a demo weight stack, optionally replicated across devices
  (``--executor threaded`` overlaps the device slots in wall-time), and
  report throughput, busy time and measured wall time;
- ``info``    — show the device spec, calibration constants and registry
  contents (``--json`` for machine-readable output).

Every command resolves patterns/engines/placements/schedules/importance
metrics through the string registries and drives the pipeline exclusively
via ``repro.compile(...)`` / ``repro.tune(...)`` — there is no hand-wired
plan or pruner construction here.  Commands print human-readable tables
(or JSON) and exit non-zero on invalid input, so the CLI is scriptable.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.core.importance import available_importance
from repro.core.schedule import available_schedules
from repro.kernels.fusion import EPILOGUES
from repro.kernels.masked import activation_dtype
from repro.patterns.registry import available_engines, available_patterns
from repro.runtime.executor import available_executors
from repro.runtime.faults import available_faults
from repro.runtime.server import ServerConfig

__all__ = ["main", "build_parser"]

#: serving/pricing dtypes: floats execute end to end; int8 is weights-only
#: quantisation (float32 activations, fp32 accumulation, per-tile scales)
_DTYPES = ("float64", "float32", "float16", "int8")

_PRICE_PATTERNS = sorted(set(available_patterns()) | {"dense", "tew"})
_SWEEP_PATTERNS = sorted(set(available_patterns()) | {"tew"})
_TUNE_PATTERNS = sorted(set(available_patterns()) | {"tew"})
_PLACEMENTS = ("single", "replicated")
#: ``repro serve`` server flags default to ServerConfig's own defaults,
#: and ServerConfig validates them
_SERVER = ServerConfig()
#: mirrors repro.experiments.accuracy.TASKS without importing the (heavy)
#: experiment module at parser-build time; test_cli pins the equality
_TASKS = ("mnli", "squad", "vgg", "nmt")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tile-wise sparsity (SC 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prune = sub.add_parser("prune", help="TW-prune a .npy weight matrix")
    p_prune.add_argument("weight", help="path to a 2-D .npy weight matrix")
    p_prune.add_argument("--sparsity", type=float, default=0.75)
    p_prune.add_argument("--granularity", "-G", type=int, default=128)
    p_prune.add_argument(
        "--out", help="write the compiled model here (.npz, repro.load reads it)"
    )
    p_prune.add_argument(
        "--split", type=float, default=0.5,
        help="column/row budget split (0=rows only, 1=columns only)",
    )

    p_tune = sub.add_parser(
        "tune", help="gradual prune + fine-tune a Mini* task via repro.tune"
    )
    p_tune.add_argument("task", choices=_TASKS)
    p_tune.add_argument("--pattern", default="tw", choices=_TUNE_PATTERNS)
    p_tune.add_argument("--sparsity", type=float, default=0.75)
    p_tune.add_argument("--granularity", "-G", type=int, default=16,
                        help="TW tile width (Mini* models are small; "
                             "16 matches the paper-scale examples)")
    p_tune.add_argument("--schedule", default="gradual",
                        choices=available_schedules())
    p_tune.add_argument("--stages", type=int, default=None,
                        help="prune+fine-tune stages (default: 2 for "
                             "gradual; oneshot is single-stage by "
                             "definition)")
    p_tune.add_argument("--law", default=None,
                        choices=["linear", "cubic", "geometric"],
                        help="sparsity increase law (schedule default: cubic)")
    p_tune.add_argument("--importance", default="taylor",
                        choices=available_importance())
    p_tune.add_argument("--tew-delta", type=float, default=0.05,
                        help="EW restore fraction when --pattern tew")
    p_tune.add_argument("--no-apriori", action="store_true",
                        help="disable Algorithm 2's EW-informed prior")
    p_tune.add_argument("--train-samples", type=int, default=256,
                        help="dense-training set size (smaller = faster)")
    p_tune.add_argument("--finetune-epochs", type=int, default=None,
                        help="override per-stage fine-tuning epochs "
                             "(0 = prune-only stages)")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--out",
                        help="save the tuned compiled model here (.npz; "
                             "TW sessions only)")
    p_tune.add_argument("--json", action="store_true",
                        help="machine-readable trajectory output")

    p_lat = sub.add_parser("latency", help="price a model on the simulated V100")
    p_lat.add_argument("model", choices=["bert", "vgg", "nmt"])
    p_lat.add_argument("--pattern", default="tw", choices=_PRICE_PATTERNS)
    p_lat.add_argument("--sparsity", type=float, default=0.75)
    p_lat.add_argument("--granularity", "-G", type=int, default=128)
    p_lat.add_argument("--engine", default="tensor_core", choices=available_engines())
    p_lat.add_argument("--dtype", default=None, choices=_DTYPES,
                       help="price at this execution dtype (picks the "
                            "tensor-core calibration for float16/int8, "
                            "cuda-core for float32/float64, and scales "
                            "the memory legs by the element size); "
                            "default: the engine's historical pricing")

    p_sweep = sub.add_parser("sweep", help="speedup vs sparsity table")
    p_sweep.add_argument("model", choices=["bert", "vgg", "nmt"])
    p_sweep.add_argument("--pattern", default="tw", choices=_SWEEP_PATTERNS)
    p_sweep.add_argument("--granularity", "-G", type=int, default=128)
    p_sweep.add_argument("--engine", default="tensor_core", choices=available_engines())
    p_sweep.add_argument(
        "--sparsities", type=float, nargs="+",
        default=[0.0, 0.25, 0.5, 0.75, 0.9, 0.99],
    )

    p_serve = sub.add_parser(
        "serve", help="serve a demo weight stack through the TW pipeline"
    )
    p_serve.add_argument("model", choices=["bert", "vgg", "nmt"])
    p_serve.add_argument("--pattern", default="tw", choices=["tw"],
                         help="serving executes the TW format")
    p_serve.add_argument("--sparsity", type=float, default=0.75)
    p_serve.add_argument("--granularity", "-G", type=int, default=64)
    p_serve.add_argument("--devices", type=int, default=1,
                         help="number of (simulated) devices")
    p_serve.add_argument("--placement", default="single", choices=_PLACEMENTS)
    p_serve.add_argument("--executor", default=_SERVER.executor,
                         choices=available_executors(),
                         help="wave executor: inline (sequential oracle) "
                              "or threaded (worker threads overlap device "
                              "slots)")
    p_serve.add_argument("--max-retries", type=int, default=_SERVER.max_retries,
                         help="re-execution budget per failed wave group "
                              "before bisection isolates the poison request")
    p_serve.add_argument("--deadline-s", type=float, default=None,
                         help="per-request deadline (seconds, relative to "
                              "submit); expired requests are shed before any "
                              "GEMM runs")
    p_serve.add_argument("--max-queue-rows", type=int,
                         default=_SERVER.max_queue_rows,
                         help="backpressure bound on queued rows "
                              "(0 = unbounded)")
    p_serve.add_argument("--shed-policy", default=_SERVER.shed_policy,
                         help="what to do when --max-queue-rows is hit: "
                              "reject or shed_oldest")
    p_serve.add_argument("--watchdog-s", type=float, default=_SERVER.watchdog_s,
                         help="per-wave stall bound for the threaded "
                              "executor (default: executor's own, 60s)")
    p_serve.add_argument("--faults", default=_SERVER.faults,
                         help="deterministic fault schedule, e.g. "
                              "'exception:wave=1;latency:rate=0.1:duration=0.01' "
                              f"(kinds: {', '.join(available_faults())})")
    p_serve.add_argument("--expect-all-ok", action="store_true",
                         help="exit non-zero unless every request ends "
                              "status=ok (CI smoke contract)")
    p_serve.add_argument("--scale", type=int, default=8,
                         help="shrink model dims by this factor (demo sizing)")
    p_serve.add_argument("--blocks", type=int, default=2,
                         help="encoder blocks (bert stack)")
    p_serve.add_argument("--requests", type=int, default=16,
                         help="requests for the lock-step drain")
    p_serve.add_argument("--rows", type=int, default=8,
                         help="activation rows per request")
    p_serve.add_argument("--dtype", default="float32", choices=_DTYPES,
                         help="execution dtype; int8 quantises weights "
                              "per tile (requests stay float32)")
    p_serve.add_argument("--epilogue", default=None,
                         choices=sorted(EPILOGUES.names()),
                         help="fuse this epilogue into every layer's wave "
                              "task (deterministic demo parameters)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--stats-json", default=None, metavar="PATH",
                         help="dump the structured stats snapshot (queue "
                              "depth, wave occupancy, per-device busy %%, "
                              "cache hit rate, latency percentiles) as JSON")
    p_serve.add_argument("--stats-interval-s", type=float, default=0.0,
                         help="emit a one-line ingress stats log every N "
                              "seconds during --http (0 = off)")
    p_serve.add_argument("--http", type=int, default=None, metavar="PORT",
                         help="network mode: serve POST /v1/infer (binary "
                              "tensor wire format or JSON), GET /healthz and "
                              "GET /v1/stats over HTTP on PORT (0 = pick a "
                              "free port) until SIGTERM/Ctrl-C, then drain "
                              "gracefully; --requests/--rows are ignored — "
                              "traffic comes from the network")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for --http (default loopback)")
    p_serve.add_argument("--drain-timeout-s", type=float, default=30.0,
                         help="bound on the graceful drain at --http "
                              "shutdown; stragglers past it are failed "
                              "instead of hanging the exit")

    p_info = sub.add_parser("info", help="device spec and calibration constants")
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable output for harnesses")
    return parser


def _cmd_prune(args: argparse.Namespace) -> int:
    import repro
    from repro.analysis import format_table

    try:
        weight = np.load(args.weight)
    except (OSError, ValueError, EOFError) as exc:
        print(f"error: cannot load weight matrix: {exc}", file=sys.stderr)
        return 2
    if weight.ndim != 2:
        print(f"error: expected a 2-D matrix, got shape {weight.shape}",
              file=sys.stderr)
        return 2
    from repro.core import TWPruneConfig

    try:
        model = repro.compile(
            weight,
            pattern="tw",
            sparsity=args.sparsity,
            prune_config=TWPruneConfig(
                granularity=args.granularity, col_row_split=args.split
            ),
        )
    except ValueError as exc:  # e.g. --granularity 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    layer = model.layers[0]
    print(format_table(
        ["metric", "value"],
        [
            ["shape", f"{weight.shape[0]}x{weight.shape[1]}"],
            ["target sparsity", args.sparsity],
            ["achieved sparsity", model.achieved_sparsity],
            ["tiles", layer.pruned_tw.n_tiles],
            ["kept columns", layer.pruned_tw.kept_columns],
            ["load imbalance", layer.pruned_tw.load_imbalance()],
            ["memory (fp16+masks)", f"{layer.pruned_tw.memory_bytes()} B"],
        ],
    ))
    if args.out:
        model.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import repro
    from repro.analysis import format_table

    if not (0.0 <= args.sparsity < 1.0):
        print("error: --sparsity must be in [0, 1)", file=sys.stderr)
        return 2
    if args.granularity < 1:
        print("error: --granularity must be >= 1", file=sys.stderr)
        return 2
    if args.stages is not None and args.stages < 1:
        print("error: --stages must be >= 1", file=sys.stderr)
        return 2
    if args.schedule == "oneshot" and (
        args.stages not in (None, 1) or args.law is not None
    ):
        print("error: the oneshot schedule is single-stage by definition; "
              "drop --stages/--law or use --schedule gradual", file=sys.stderr)
        return 2
    if args.train_samples < 1:
        print("error: --train-samples must be >= 1", file=sys.stderr)
        return 2
    if args.finetune_epochs is not None and args.finetune_epochs < 0:
        print("error: --finetune-epochs must be >= 0", file=sys.stderr)
        return 2
    if not (0.0 <= args.tew_delta < 1.0):
        print("error: --tew-delta must be in [0, 1)", file=sys.stderr)
        return 2
    import dataclasses

    from repro.experiments.accuracy import prepare_task

    if not args.json:
        print(f"training dense {args.task} baseline "
              f"({args.train_samples} samples) ...")
    bundle = prepare_task(args.task, seed=args.seed,
                          train_samples=args.train_samples)
    train = None
    if args.finetune_epochs is not None:
        train = dataclasses.replace(bundle.finetune, epochs=args.finetune_epochs)
    # historical default: the accuracy experiments run 2 gradual stages;
    # oneshot passes None through so its factory pins n_stages=1
    stages = args.stages
    if stages is None and args.schedule == "gradual":
        stages = 2
    result = repro.tune(
        bundle.adapter(),
        pattern=args.pattern,
        sparsity=args.sparsity,
        granularity=args.granularity,
        schedule=args.schedule,
        n_stages=stages,
        law=args.law,
        importance=args.importance,
        tew=args.tew_delta if args.pattern == "tew" else None,
        apriori=not args.no_apriori,
        train=train,
        evaluate=bundle.evaluate,
    )
    if args.json:
        import json

        print(json.dumps({
            "task": args.task,
            "pattern": result.pattern,
            "metric_name": bundle.metric_name,
            "baseline_metric": bundle.baseline_metric,
            "final_metric": result.metric,
            "achieved_sparsity": result.achieved_sparsity,
            "trajectory": result.trajectory(),
        }, indent=1))
    else:
        print(format_table(
            ["stage", "kind", "target", "achieved", bundle.metric_name],
            [
                [s.index, s.kind, f"{s.target_sparsity:.3f}",
                 f"{s.achieved_sparsity:.3f}", s.metric]
                for s in result.history
            ],
        ))
        drop = bundle.baseline_metric - (result.metric or 0.0)
        print(f"dense {bundle.metric_name}: {bundle.baseline_metric:.3f}   "
              f"tuned: {result.metric:.3f}   drop: {drop:+.3f}   "
              f"sparsity: {result.achieved_sparsity:.3f}")
    if args.out:
        try:
            result.save(args.out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"wrote {args.out}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    import repro
    from repro.analysis import format_table

    if not (0.0 <= args.sparsity <= 1.0):
        print("error: --sparsity must be in [0, 1]", file=sys.stderr)
        return 2
    try:
        price = repro.compile(
            args.model,
            pattern=args.pattern,
            sparsity=args.sparsity,
            granularity=args.granularity,
            engine=args.engine,
        ).price(dtype=args.dtype)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = price.end_to_end
    fr = rep.fractions()
    print(format_table(
        ["metric", "value"],
        [
            ["model", args.model],
            ["pattern", args.pattern],
            ["sparsity", args.sparsity],
            ["engine", price.engine if args.dtype else args.engine],
            ["dtype", args.dtype or "(engine default)"],
            ["GEMM-only speedup", f"{price.gemm_speedup:.2f}x"],
            ["end-to-end latency", f"{rep.total_us / 1e3:.3f} ms"],
            ["  gemm fraction", fr["gemm"]],
            ["  transpose fraction", fr["transpose"]],
            ["  non-GEMM fraction", fr["others"]],
        ],
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import repro
    from repro.analysis import format_table

    rows = []
    for s in args.sparsities:
        if not (0.0 <= s <= 1.0):
            print(f"error: sparsity {s} out of [0, 1]", file=sys.stderr)
            return 2
        try:
            price = repro.compile(
                args.model,
                pattern=args.pattern,
                sparsity=s,
                granularity=args.granularity,
                engine=args.engine,
            ).price()
        except ValueError as exc:
            print(f"error: sparsity {s}: {exc}", file=sys.stderr)
            return 2
        rows.append([f"{s:.0%}", price.gemm_speedup])
    print(format_table(["sparsity", "speedup (x)"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import repro
    from repro.analysis import format_table
    from repro.api import demo_layer_stack
    from repro.runtime.placement import Placement

    if args.deadline_s is not None and args.deadline_s < 0:
        print("error: --deadline-s must be >= 0", file=sys.stderr)
        return 2
    if args.requests < 0:
        print("error: --requests must be >= 0", file=sys.stderr)
        return 2
    if args.rows < 1:
        print("error: --rows must be >= 1", file=sys.stderr)
        return 2
    if args.stats_interval_s < 0:
        print("error: --stats-interval-s must be >= 0", file=sys.stderr)
        return 2
    if args.http is not None and not (0 <= args.http <= 65535):
        print("error: --http port must be in [0, 65535]", file=sys.stderr)
        return 2
    if args.drain_timeout_s <= 0:
        print("error: --drain-timeout-s must be > 0", file=sys.stderr)
        return 2
    from repro.gpu.device import V100

    # demo_layer_stack, Placement, compile and ServerConfig validate every
    # serving flag; their first complaint becomes the one error line
    try:
        weights, names = demo_layer_stack(
            args.model, scale=args.scale, blocks=args.blocks, seed=args.seed
        )
        placement = Placement(args.placement, (V100,) * args.devices)
        model = repro.compile(
            weights,
            pattern=args.pattern,
            sparsity=args.sparsity,
            granularity=args.granularity,
            placement=placement,
            dtype=np.dtype(args.dtype),
            epilogue=args.epilogue,
            names=names,
        )
        server = model.serve(
            executor=args.executor,
            max_retries=args.max_retries,
            max_queue_rows=args.max_queue_rows,
            shed_policy=args.shed_policy,
            watchdog_s=args.watchdog_s,
            faults=args.faults,
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.http is not None:
        return _serve_http(args, model, placement, server)
    from repro.runtime.server import QueueFullError

    rng = np.random.default_rng(args.seed + 1)
    k = weights[0].shape[0]
    req_dtype = _request_dtype(args.dtype)
    rejected = 0
    try:
        for _ in range(args.requests):
            x = rng.standard_normal((args.rows, k)).astype(req_dtype)
            try:
                server.submit(x, deadline_s=args.deadline_s)
            except QueueFullError:
                rejected += 1
        served = server.flush()
    finally:
        # deterministic teardown: worker threads down
        server.close()
    st = server.stats
    by_status: dict[str, int] = {}
    for req in served:
        by_status[req.status] = by_status.get(req.status, 0) + 1
    rows = [
        ["model", f"{args.model} ({model.n_layers} layers, scale 1/{args.scale})"],
        ["achieved sparsity", model.achieved_sparsity],
        ["placement", f"{placement.kind} x{placement.n_devices}"],
        ["executor", server.executor.describe()],
        ["requests", st.requests],
        ["rows", st.rows],
        ["waves", st.batches],
        ["GEMMs", st.gemms],
        ["rows/s (flush wall)", f"{st.rows_per_s():.0f}"],
        ["mean latency", f"{st.mean_latency_s() * 1e3:.3f} ms"],
        ["busy (sum over devices)", f"{st.busy_s * 1e3:.3f} ms"],
        ["critical path (max device)", f"{st.critical_path_s() * 1e3:.3f} ms"],
        ["wall time (measured)", f"{st.wall_time_s * 1e3:.3f} ms"],
        ["statuses", " ".join(
            f"{k}:{v}" for k, v in sorted(by_status.items())
        ) or "-"],
    ]
    if rejected:
        rows.append(["rejected at submit (queue full)", rejected])
    if st.retries or st.requeues or st.poisoned:
        rows.append(["retries (wave re-runs)", st.retries])
        rows.append(["requeued requests", st.requeues])
        rows.append(["poisoned (isolated)", st.poisoned])
    if st.shed or st.expired:
        rows.append(["shed (backpressure)", st.shed])
        rows.append(["expired (deadline)", st.expired])
    if server.config.faults is not None:
        rows.append(["faults injected", server.config.faults.total_fired])
    for name in sorted(st.device_gemms):
        rows.append([
            f"  {name}",
            f"{st.device_gemms[name]} GEMMs, {st.device_busy_s[name] * 1e3:.3f} ms",
        ])
    print(format_table(["metric", "value"], rows))
    if args.stats_json:
        _dump_stats_json(args.stats_json, server.stats_record())
    if args.expect_all_ok:
        not_ok = sum(v for k, v in by_status.items() if k != "ok")
        if not_ok or rejected or st.requests != args.requests:
            print(
                f"error: --expect-all-ok: {st.requests}/{args.requests} ok, "
                f"{not_ok} non-ok, {rejected} rejected",
                file=sys.stderr,
            )
            return 1
    return 0


def _dump_stats_json(path: str, record: dict) -> None:
    from repro.runtime.server import write_stats_json

    write_stats_json(path, record)
    print(f"stats written to {path}")


def _serve_http(args, model, placement, server) -> int:
    """``repro serve --http PORT``: the network front door.

    Stacks a :class:`ServingLoop` and :class:`NetServer` over the
    already-built server and blocks until SIGTERM/Ctrl-C, then drains
    gracefully (bounded by ``--drain-timeout-s``) and — HTTP mode
    included — writes the final ``--stats-json`` snapshot on the way
    out.
    """
    from repro.analysis import format_table
    from repro.runtime.ingress import ServingLoop
    from repro.runtime.netserve import NetServer

    ingress = ServingLoop(
        server,
        stats_interval_s=args.stats_interval_s,
        stats_log=print,
    )
    net = NetServer(
        ingress,
        host=args.host,
        port=args.http,
        drain_timeout_s=args.drain_timeout_s,
        stats_json=args.stats_json,
        log_fn=print,
        owns_loop=True,
    )
    try:
        net.run()
    finally:
        # the loop does not own this server (the CLI built it); close for
        # deterministic teardown — worker threads down
        server.close()
    record = net.final_stats or {}
    st = record.get("latency_ms", {})
    rows = [
        ["model", f"{args.model} ({model.n_layers} layers, scale 1/{args.scale})"],
        ["placement", f"{placement.kind} x{placement.n_devices}"],
        ["executor", server.executor.describe()],
        ["endpoint", f"http://{args.host}:{net.port}/v1/infer"],
        ["requests seen (HTTP)", record.get("net", {}).get("requests_seen", 0)],
        ["requests served", record.get("requests", 0)],
        ["waves", record.get("waves", {}).get("count", 0)],
        ["latency p50/p95/p99", "{} / {} / {} ms".format(
            st.get("p50", 0.0), st.get("p95", 0.0), st.get("p99", 0.0)
        )],
        ["drained cleanly", record.get("net", {}).get("drained", True)],
    ]
    if server.config.faults is not None:
        rows.append(["faults injected", server.config.faults.total_fired])
    print(format_table(["metric", "value"], rows))
    return 0


def _request_dtype(dtype: str) -> str:
    """The dtype request activations travel in: ``int8`` models quantise
    weights only, so their requests stay ``float32``."""
    return str(activation_dtype(dtype))


def _info_record() -> dict:
    import dataclasses

    import repro
    from repro.core.importance import IMPORTANCE
    from repro.core.schedule import SCHEDULES
    from repro.gpu.calibration import DEFAULT_CALIBRATION
    from repro.gpu.device import V100
    from repro.patterns.registry import available_engines, available_patterns
    from repro.runtime.executor import EXECUTORS
    from repro.runtime.faults import FAULTS
    from repro.runtime.placement import PLACEMENTS

    return {
        "version": repro.__version__,
        "device": dataclasses.asdict(V100),
        "calibration": dataclasses.asdict(DEFAULT_CALIBRATION),
        "registries": {
            "patterns": available_patterns(),
            "engines": available_engines(),
            "placements": PLACEMENTS.names(),
            "executors": EXECUTORS.names(),
            "faults": FAULTS.names(),
            "schedules": SCHEDULES.names(),
            "importance": IMPORTANCE.names(),
            "epilogues": EPILOGUES.names(),
        },
    }


def _cmd_info(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import format_table

    record = _info_record()
    if getattr(args, "json", False):
        print(json.dumps(record, indent=1))
        return 0
    print("device:")
    print(format_table(
        ["field", "value"],
        [[k, v] for k, v in record["device"].items()],
    ))
    print("\ncalibration:")
    print(format_table(
        ["constant", "value"],
        [[k, v] for k, v in record["calibration"].items()],
    ))
    print("\nregistries:")
    print(format_table(
        ["registry", "entries"],
        [[k, " ".join(v)] for k, v in record["registries"].items()],
    ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "prune": _cmd_prune,
        "tune": _cmd_tune,
        "latency": _cmd_latency,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
