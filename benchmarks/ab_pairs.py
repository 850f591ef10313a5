"""Run the repository benchmark as alternating parent/change pairs.

    python3 benchmarks/ab_pairs.py --parent ../parent --change . \\
        --workloads http_small --seeds 1-10 --seconds 45

A gain is claimed on the repo benchmark (``twbench/run.py``) only from
pairs run in one session, because its throughput metrics drift between
sessions by more than their bounds.  For each seed this script runs
``twbench/run.py`` once in each checkout, alternating which side goes
first (the parent on the first seed), and parses the last JSON line
each run prints.  It then prints, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median and q1–q3, how many pairs the
change won, and failed/attempted operations per side.

Runs execute in a temporary working directory with bytecode writing off,
so nothing is written inside either checkout.  Exits 1 when any run is
incorrect (``"correct": false``) or prints no JSON result line.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(spec: str) -> list[int]:
    """``"1-10"`` or ``"1,3,7"`` (or a mix) → a list of seeds."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is its own spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric over ``(parent, change)`` metric-value pairs.

    ``pairs`` holds each seed's ``{name: value}`` per side; ``metrics`` is
    ``BENCHMARK.json``'s ``end_to_end`` list (``name``, ``better``).  A
    pair is a win when the change is strictly better.  ``resolved`` says
    whether the medians differ, in the better direction, by more than the
    parent's q1–q3 spread.
    """
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gain = cmed - pmed if higher else pmed - cmed
        rows.append({
            "metric": name,
            "parent": (pmed, pq1, pq3),
            "change": (cmed, cq1, cq3),
            "wins": sum((c > p) if higher else (c < p) for p, c in both),
            "pairs": len(both),
            "delta_pct": 100.0 * (cmed - pmed) / pmed if pmed else float("nan"),
            "resolved": gain > pq3 - pq1,
        })
    return rows


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             workdir: Path) -> dict | None:
    """One ``twbench/run.py`` run; its parsed JSON line, or None if none."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(checkout / "twbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                break
    sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return None


def format_rows(workload: str, rows: list[dict]) -> list[str]:
    lines = [f"{workload}: metric | parent median [q1-q3] | change median [q1-q3]"
             " | change wins | delta | resolved"]
    for r in rows:
        (pm, pq1, pq3), (cm, cq1, cq3) = r["parent"], r["change"]
        lines.append(
            f"  {r['metric']:<16} | {pm:.4g} [{pq1:.4g}-{pq3:.4g}]"
            f" | {cm:.4g} [{cq1:.4g}-{cq3:.4g}] | {r['wins']}/{r['pairs']}"
            f" | {r['delta_pct']:+.1f}% | {'yes' if r['resolved'] else 'no'}"
        )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workloads", nargs="+", default=["http_small"])
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,7"')
    ap.add_argument("--seconds", type=float, default=45.0)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        for workload in args.workloads:
            pairs, ops = [], {s: [0, 0] for s in SIDES}
            for i, seed in enumerate(parse_seeds(args.seeds)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {}
                for side in order:
                    res = run_once(dirs[side], workload, seed, args.seconds, Path(tmp))
                    if res is None or not res["correct"]:
                        ok = False
                        print(f"{workload} seed {seed} {side}: "
                              + ("no result" if res is None else "INCORRECT"))
                    if res is None:
                        continue
                    ops[side][0] += res["failed"]
                    ops[side][1] += res["attempted"]
                    got[side] = {k: v["value"] for k, v in res["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in got[side].items()),
                          flush=True)
                if len(got) == 2:
                    pairs.append((got["parent"], got["change"]))
            for line in format_rows(workload, summarize(pairs, metrics)):
                print(line)
            print(f"  failed/attempted: parent {ops['parent'][0]}/{ops['parent'][1]}"
                  f", change {ops['change'][0]}/{ops['change'][1]}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
