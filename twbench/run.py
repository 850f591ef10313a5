"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 twbench/run.py --workload batch_bert --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` for why each exists):

- ``batch_bert``  ``CompiledTWModel.run`` against the dense anchor
- ``http_small``  8-row requests over loopback HTTP to a server process

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
workload with spans around calls into each module and prints the
per-layer metrics instead, plus the tracing overhead against the
untraced run of the same workload and seed (saved under ``.twbench/``,
with the span dump), flagged when the two ran on different hosts.
Human-readable lines come first, the host fingerprint among them, so any
comparison of two results can check that they ran on the same host; the
last line is the JSON result.  Exits 1 when any output is wrong, 2 when
the program is missing.
"""

import os

# one BLAS thread per process, set before numpy loads (here and, through
# the environment, in every process this one starts): on a 2-core host,
# 2-thread OpenBLAS swings small-GEMM medians several-fold
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), str(BENCH), os.environ.get("PYTHONPATH")) if p
)
#: untraced results (for the traced run's overhead) and span dumps
OUT = Path.cwd() / ".twbench"

WORKLOADS = ("batch_bert", "http_small")


def _overhead(untraced_path: Path, fp: dict, metrics: dict) -> list[str]:
    """Traced minus untraced end-to-end metrics, with a fingerprint check."""
    label = "tracing overhead (traced - untraced)"
    try:
        saved = json.loads(untraced_path.read_text())
    except (OSError, ValueError):
        return [f"{label}: no untraced run of this workload and seed saved"]
    lines = []
    if saved["fingerprint"] != fp:
        lines.append(f"{label}: FINGERPRINT DIFFERS, not comparable: {saved['fingerprint']}")
    for name, (value, unit) in metrics.items():
        base = saved["metrics"].get(name)
        if base is not None:
            lines.append(f"{label}: {name} {value - base['value']:+.6g} {unit}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC}", file=sys.stderr)
        return 2

    import common
    from spans import Tracer, install_setup_wrappers

    if args.workload == "batch_bert":
        from batch import run
    else:
        from http_small import run

    fp = common.fingerprint()
    print("fingerprint:", json.dumps(fp, sort_keys=True))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_setup_wrappers(tracer)
    result = run(args.seed, args.seconds, tracer)
    for line in result["report"]:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<24} {value:14.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        saved = {
            "fingerprint": fp,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
        (OUT / f"{stem}-trace0.json").write_text(json.dumps(saved))
        reported = result["metrics"]
    else:
        for line in _overhead(OUT / f"{stem}-trace0.json", fp, result["metrics"]):
            print(line)
        for name, row in tracer.summary().items():
            print(f"span {name}: {row['calls']} calls, p50 {row['p50_ms']:.4f} ms, "
                  f"self {row['self_ms']:.3f} ms")
        tracer.dump(OUT / f"{stem}-spans.jsonl")
        reported = result["layers"]
        for name, (value, unit) in reported.items():
            print(f"{name:<48} {value:14.6g} {unit}")

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
