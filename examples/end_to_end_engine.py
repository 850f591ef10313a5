#!/usr/bin/env python
"""End-to-end latency breakdown with the optimisation ablation (Fig. 15).

Prices a full BERT-base forward pass (GEMM + transpose + non-GEMM kernels)
at 75 % TW sparsity under the paper's three implementation configurations:

- W/o Transpose  — untransposed layout: the GEMM pays the uncoalesced
  penalty and cannot benefit from sparsity;
- Transpose Only — transpose kernels at every GEMM boundary (~10 % tax);
- Transpose & Fusion — non-GEMM kernels consume the transposed layout, so
  only two real transposes remain, and fusion shrinks the non-GEMM share.

Run:  python examples/end_to_end_engine.py
"""

from repro.analysis import ascii_bars, format_table
from repro.experiments.latency import end_to_end_report
from repro.gpu.engine import EngineConfig, TransposePlan

CONFIGS = {
    "Dense (fused)": ("dense", 0.0, EngineConfig()),
    "W/o Transpose": ("tw", 0.75, EngineConfig(transpose=TransposePlan("none"), fusion=False)),
    "Transpose Only": ("tw", 0.75, EngineConfig(transpose=TransposePlan("per_layer"), fusion=False)),
    "Transpose & Fusion": ("tw", 0.75, EngineConfig()),
}

for model in ("bert", "nmt"):
    print(f"=== {model.upper()} end-to-end at 75% TW sparsity ===")
    rows = []
    totals = {}
    for label, (pattern, sparsity, config) in CONFIGS.items():
        rep = end_to_end_report(model, pattern, sparsity, config)
        fr = rep.fractions()
        rows.append([
            label, rep.total_us / 1e3,
            fr["gemm"], fr["transpose"], fr["others"],
        ])
        totals[label] = rep.total_us
    print(format_table(
        ["config", "total (ms)", "gemm", "transpose", "others"], rows
    ))
    dense_total = totals["Dense (fused)"]
    print("\nend-to-end latency relative to dense:")
    print(ascii_bars({k: v / dense_total for k, v in totals.items()}))
    best = dense_total / totals["Transpose & Fusion"]
    print(f"\nfully-optimised end-to-end speedup: {best:.2f}x "
          f"(paper: 1.61x BERT / 1.86x NMT)\n")
