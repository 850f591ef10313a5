"""Wall-clock smoke test for the vectorized hot paths.

Runs ``benchmarks/bench_hotpaths.py --quick`` in a subprocess and asserts
the pruning step at BERT-base scale (12×(768×3072) matrices) stays under a
generous ceiling, so an accidental reintroduction of per-unit Python loops
fails fast.  The ceiling is ~20× above the typical vectorised time — this
is a loop-regression tripwire, not a precise perf gate (the JSON written by
the full benchmark is the trajectory record).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: generous: the vectorised prune step runs in < 0.15 s per config here;
#: the seed's scalar loops took ~1.1 s at the quick sweep's (0.25, 32) point
PRUNE_CEILING_MS = 3000.0

#: the warm batched TW GEMM at the quick config (m=128, G=8, s=0.5) runs in
#: ~8 ms; the ceiling only trips if the per-tile Python loop sneaks back
TW_GEMM_CEILING_MS = 200.0


def _run_quick_bench(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_hotpaths.py"),
         "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, f"bench failed:\n{proc.stdout}\n{proc.stderr}"
    return json.loads(out.read_text())


@pytest.mark.perf_smoke
def test_quick_bench_under_ceilings(tmp_path):
    record = _run_quick_bench(tmp_path)
    prune = record["prune_step"]
    assert prune["scale"] == "12x(768x3072)"
    assert prune["configs"], "quick sweep produced no prune configs"
    for row in prune["configs"]:
        assert row["vectorized_ms"] < PRUNE_CEILING_MS, (
            f"prune step at s={row['sparsity']} G={row['granularity']} took "
            f"{row['vectorized_ms']}ms (ceiling {PRUNE_CEILING_MS}ms) — did a "
            "scalar loop sneak back into the hot path?"
        )
        # the vectorised path must also actually beat the scalar reference
        assert row["vectorized_ms"] < row["reference_ms"]

    # batched TW GEMM tripwire: the width-grouped executor must stay
    # batched (under the ceiling) and ahead of the per-tile oracle
    for row in record["tw_gemm"]["configs"]:
        assert row["batched_ms"] < TW_GEMM_CEILING_MS, (
            f"batched tw_gemm at m={row['m']} G={row['granularity']} took "
            f"{row['batched_ms']}ms (ceiling {TW_GEMM_CEILING_MS}ms) — did "
            "the per-tile loop sneak back into the batched path?"
        )
        assert row["batched_ms"] < row["reference_ms"]
