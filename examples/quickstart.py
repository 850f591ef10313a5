#!/usr/bin/env python
"""Quickstart: tile-wise pruning of one weight matrix, end to end.

Walks the library's core loop on a single GEMM — through the one front
door, ``repro.compile`` (the ROADMAP contract: no hand-wired
``tw_prune_step → from_masks → tw_gemm`` chains at call sites):

1. compile a weight matrix at 75 % tile-wise sparsity (pruning and the
   compact TW format both happen inside ``compile``),
2. inspect what the pruner kept (``prune_report``),
3. verify the compiled TW forward matches dense GEMM on the masked
   weights — the paper's correctness claim,
4. price dense vs. TW execution on the simulated V100 (``price``).

Run:  python examples/quickstart.py
"""

import numpy as np

import repro

# ----------------------------------------------------------------- #
# 1. compile: prune -> compact TW format, one call
# ----------------------------------------------------------------- #
rng = np.random.default_rng(0)
K, N, G = 768, 768, 128
weight = rng.standard_normal((K, N))

model = repro.compile(weight, pattern="tw", sparsity=0.75, granularity=G)

# ----------------------------------------------------------------- #
# 2. what the pruner kept
# ----------------------------------------------------------------- #
report = model.prune_report()
layer = model.layers[0]
print(f"target sparsity {report['target_sparsity']} -> "
      f"achieved {report['achieved_sparsity']:.3f}")
print(f"columns kept: {report['layers'][0]['kept_columns']}/{N}")
print(f"tiles: {layer.tw.n_tiles}, widths {layer.tw.kept_widths().tolist()}, "
      f"depths {layer.tw.kept_depths().tolist()}")

# ----------------------------------------------------------------- #
# 3. the correctness claim: TW forward == dense GEMM on masked weights
# ----------------------------------------------------------------- #
M = 256
activations = rng.standard_normal((M, K))
sparse_out = model.run(activations)
dense_out = activations @ (weight * layer.mask)
np.testing.assert_allclose(sparse_out, dense_out, atol=1e-10)
print("model.run matches dense GEMM on the masked weights: OK")

# ----------------------------------------------------------------- #
# 4. price it on the simulated V100 tensor cores
# ----------------------------------------------------------------- #
M_latency = 8192  # high-throughput inference, tokens in flight
price = model.price(m=M_latency)
print(f"dense : {price.dense_gemm_us:8.1f} us")
print(f"TW    : {price.sparse_gemm_us:8.1f} us  "
      f"-> {price.gemm_speedup:.2f}x speedup "
      f"(paper: 2.26x at 75% with G=128)")
