"""Diff a fresh hot-path benchmark run against the checked-in baseline.

Walks ``BENCH_hotpaths.json`` and a freshly produced record section by
section and flags every production timing (``*_ms`` leaves, excluding the
``reference_*`` oracle columns and ``dense_ms``, which times numpy) that
regressed by more than ``--threshold`` (default 2x).  This is the PR-time
companion to the ``perf_smoke`` pytest tripwire: the tripwire only catches
catastrophic loop regressions, this catches the gradual ones the ROADMAP
perf contract warns about.

A timing compares only against one from the same host: a section is
diffed only when its ``host`` fingerprint equals the fresh section's.
Any other section is reported "not comparable" and counts as neither a
pass nor a fail; regenerate it with ``bench_hotpaths.py`` on that host.

Usage::

    PYTHONPATH=src python benchmarks/check_bench.py            # run fresh, diff
    PYTHONPATH=src python benchmarks/check_bench.py --quick    # faster sweep
    PYTHONPATH=src python benchmarks/check_bench.py --fresh F  # diff a saved run

Exits non-zero when a regression is flagged, so it can gate CI.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_hotpaths.json"


#: fields that identify a benchmark row — rows are matched by these, never
#: by list position, so a changed sweep can't silently compare two
#: different configs against each other
_IDENTITY_FIELDS = (
    "m", "granularity", "sparsity", "dtype", "epilogue", "format", "shape",
    "scale", "model",
)


def _row_label(value, index: int) -> str:
    if isinstance(value, dict):
        ident = [
            f"{f}={value[f]}" for f in _IDENTITY_FIELDS if f in value
        ]
        if ident:
            return "[" + ",".join(ident) + "]"
    return f"[{index}]"


def timing_leaves(node, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric ``*_ms`` leaf to ``identity.path -> value``."""
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (dict, list)):
                out.update(timing_leaves(value, path))
            elif isinstance(value, (int, float)) and key.endswith("_ms"):
                out[path] = float(value)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(timing_leaves(value, f"{prefix}{_row_label(value, i)}"))
    return out


def is_production_timing(path: str) -> bool:
    """``reference_*`` oracles and numpy's ``dense_ms`` are trajectory-only."""
    leaf = path.rsplit(".", 1)[-1]
    return not leaf.startswith("reference") and leaf != "dense_ms"


def host_diff(section: dict, fresh_section: dict) -> list[str]:
    """The ``host`` fingerprint fields on which two sections differ."""
    a, b = section.get("host") or {}, fresh_section.get("host") or {}
    return [k for k in sorted({*a, *b}) if a.get(k) != b.get(k)]


def compare(
    baseline: dict, fresh: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Return (regressions, notes) comparing same-host sections' ``*_ms`` leaves."""
    regressions: list[str] = []
    notes: list[str] = []
    for name in sorted(set(fresh) - set(baseline)):
        notes.append(f"new section {name} (not in baseline)")
    for name, section in baseline.items():
        if name not in fresh:
            notes.append(f"baseline-only section {name}")
            continue
        differ = host_diff(section, fresh[name])
        if differ:
            notes.append(f"{name}: not comparable (host differs: {', '.join(differ)})")
            continue
        base = timing_leaves(section, name)
        new = timing_leaves(fresh[name], name)
        for path in sorted(base):
            if path not in new:
                notes.append(f"baseline-only timing {path} (bench config changed?)")
                continue
            b, f = base[path], new[path]
            if not is_production_timing(path) or b <= 0:
                continue
            if f / b > threshold:
                regressions.append(
                    f"{path}: {b:.2f}ms -> {f:.2f}ms ({f / b:.1f}x slower)"
                )
        for path in sorted(set(new) - set(base)):
            notes.append(f"new timing {path} (not in baseline)")
    return regressions, notes


def run_fresh(quick: bool) -> dict:
    """Run ``bench_hotpaths.py`` into a temp file and load the record."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fresh.json"
        cmd = [sys.executable, str(REPO / "benchmarks" / "bench_hotpaths.py"), "--out", str(out)]
        if quick:
            cmd.append("--quick")
        subprocess.run(cmd, check=True)
        return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="saved fresh run to diff; omitted = run bench_hotpaths.py now",
    )
    parser.add_argument("--quick", action="store_true", help="reduced fresh sweep")
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="flag production timings slower than baseline by this factor",
    )
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    if args.fresh is not None:
        fresh = json.loads(args.fresh.read_text())
    else:
        fresh = run_fresh(args.quick)

    regressions, notes = compare(baseline, fresh, args.threshold)
    for note in notes:
        print(f"  note: {note}")
    if regressions:
        print(f"PERF REGRESSIONS (> {args.threshold:.1f}x vs {args.baseline.name}):")
        for r in regressions:
            print(f"  {r}")
        return 1
    compared = sum(
        name in fresh and not host_diff(section, fresh[name])
        for name, section in baseline.items()
    )
    print(f"ok: no production timing regressed > {args.threshold:.1f}x in the "
          f"{compared}/{len(baseline)} same-host sections ({args.baseline.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
