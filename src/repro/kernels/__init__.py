"""Functional (NumPy) kernels — correctness ground truth for every path.

These kernels compute the *values* each execution path produces; latency
comes from the matching cost models in :mod:`repro.gpu`.  Keeping function
and cost separate lets tests pin numerical equivalence (e.g. TW masked GEMM
≡ dense GEMM on the masked weights) independently of performance modelling.

- :mod:`repro.kernels.dense` — reference and explicitly-tiled dense GEMM.
- :mod:`repro.kernels.masked` — the paper's TW masked GEMM (Listing 1),
  executed as one gather GEMM per tile.
- :mod:`repro.kernels.liveness` — the compile stage that drops the tile
  rows reading a column the previous layer never writes and moves each
  layer into live coordinates.
- :mod:`repro.kernels.spmm` — CSR/CSC sparse×dense products (cuSparse path).
- :mod:`repro.kernels.block_sparse` — BSR GEMM (BlockSparse path).
- :mod:`repro.kernels.im2col` — convolution→GEMM lowering.
- :mod:`repro.kernels.transpose` — blocked layout transforms.
- :mod:`repro.kernels.fusion` — fused non-GEMM epilogues.

Execution pipeline (paper Fig. 7)
---------------------------------
On a GPU the TW hot path follows **plan → batch → stream → execute**: a
:func:`repro.runtime.batching.batching_plan` width-groups the tiles and a
:class:`repro.runtime.scheduler.StreamAssignment` orders the groups across
streams.  The cost model (:func:`repro.gpu.tw_kernel.tw_gemm_cost`) prices
the same launch schedule by grouping the tiles by width itself; it reads
no :class:`~repro.runtime.scheduler.ExecutionPlan`.  On the host,
:func:`repro.kernels.masked.tw_gemm` walks the tiles as gather GEMMs
(each tile loads only the activation rows it keeps, depth zero-padded to
a multiple of 32).  Each tile writes only its own output columns, so the
launch order cannot change a value.

Vectorisation contract
----------------------
Every hot-path kernel runs as batched array operations (segment reductions,
panel copies, BLAS sweeps); the scalar loop implementations are *kept* as
named ``*_reference`` oracles (``spmm_rowwise_reference``,
``spmm_colwise_reference``, ``blocked_transpose_reference``,
``tw_gemm_reference``, ``col2im_reference``, and
``tw_prune_step_reference`` in :mod:`repro.core.tile_sparsity`).  Fast paths
must match their oracle **exactly** — bit-identical outputs, not approximate
— because they add the same products in the same order (segment reductions,
``col2im``'s kernel-offset-major scatter) or on exactly-representable inputs
(selection thresholds over integer unit weights, zero-padded per-tile
reductions).  ``tests/test_vectorized_paths.py`` enforces the contract, and
``benchmarks/bench_hotpaths.py`` tracks the speedups in
``BENCH_hotpaths.json``; run it after touching any of these paths.
"""

from repro.kernels.dense import gemm, tiled_gemm
from repro.kernels.masked import masked_gemm, tw_gemm, tw_gemm_reference
from repro.kernels.spmm import csr_spmm, csc_left_spmm
from repro.kernels.block_sparse import bsr_left_gemm
from repro.kernels.im2col import (
    col2im,
    col2im_reference,
    conv2d_gemm,
    conv_output_shape,
    im2col,
)
from repro.kernels.transpose import blocked_transpose
from repro.kernels.fusion import (
    EPILOGUES,
    EpilogueSpec,
    add_bias,
    apply_epilogue,
    bias_gelu,
    bias_gelu_reference,
    bias_layernorm,
    bias_layernorm_reference,
    bias_relu,
    dropout,
    dropout_residual_layernorm,
    dropout_residual_layernorm_reference,
    gelu,
    layernorm,
    resolve_epilogue_spec,
)

__all__ = [
    "gemm",
    "tiled_gemm",
    "masked_gemm",
    "tw_gemm",
    "tw_gemm_reference",
    "csr_spmm",
    "csc_left_spmm",
    "bsr_left_gemm",
    "im2col",
    "col2im",
    "col2im_reference",
    "conv2d_gemm",
    "conv_output_shape",
    "blocked_transpose",
    "add_bias",
    "bias_relu",
    "bias_gelu",
    "bias_gelu_reference",
    "bias_layernorm",
    "bias_layernorm_reference",
    "dropout",
    "dropout_residual_layernorm",
    "dropout_residual_layernorm_reference",
    "gelu",
    "layernorm",
    "EPILOGUES",
    "EpilogueSpec",
    "apply_epilogue",
    "resolve_epilogue_spec",
]
