"""GPU latency simulator — the substrate standing in for the paper's V100.

The paper measures latency on a V100 (80 SMs, 125 TFLOPS tensor-core FP16,
15.7 TFLOPS CUDA-core FP32, ~900 GB/s HBM2).  No GPU is available here, so
this subpackage models the first-order mechanisms that produce every latency
trend in the paper:

- roofline (compute vs. DRAM bandwidth) per kernel,
- thread-block tiling, tile quantisation and wave quantisation across SMs,
- load imbalance across unequal TW tiles (makespan over blocks),
- kernel-launch overhead, batching and stream concurrency,
- uncoalesced-access and mask-load penalties,
- per-engine efficiency ceilings calibrated once against published V100 and
  paper anchor numbers (see :mod:`repro.gpu.calibration`).

Engines (one per execution path in the paper):

- :mod:`repro.gpu.tensor_core`  — cuBLAS/CUTLASS dense GEMM on tensor cores
- :mod:`repro.gpu.cuda_core`    — dense FP32 GEMM on CUDA cores
- :mod:`repro.gpu.cusparse`     — cuSparse CSR SpMM (EW / VW models)
- :mod:`repro.gpu.blocksparse`  — BlockSparse BSR GEMM (BW models)
- :mod:`repro.gpu.tw_kernel`    — the paper's TW masked/batched/streamed GEMM

All engines return a :class:`~repro.gpu.costmodel.CostBreakdown` carrying
latency components *and* performance counters (load/store transactions,
FLOPS efficiency) so Fig. 11 can be regenerated.  Latency is the only
quantity priced: the paper only remarks (§VIII) that TW could also save
energy, with no figure to reproduce, so no energy model is kept.

:mod:`repro.gpu.engine` prices a whole forward pass over them
(:class:`~repro.gpu.engine.InferenceEngine`: per-layer GEMMs, transpose
placement, the non-GEMM Amdahl share); import it from there, since it
reads the model shape tables.
"""

from repro.gpu.device import A100, T4, V100, DeviceSpec
from repro.gpu.costmodel import CostBreakdown, PerfCounters
from repro.gpu.tensor_core import dense_gemm_tc_cost
from repro.gpu.cuda_core import dense_gemm_cuda_cost
from repro.gpu.cusparse import csr_spmm_cost
from repro.gpu.blocksparse import bsr_gemm_cost
from repro.gpu.tw_kernel import TWExecutionOptions, tw_gemm_cost

__all__ = [
    "DeviceSpec",
    "V100",
    "T4",
    "A100",
    "CostBreakdown",
    "PerfCounters",
    "dense_gemm_tc_cost",
    "dense_gemm_cuda_cost",
    "csr_spmm_cost",
    "bsr_gemm_cost",
    "TWExecutionOptions",
    "tw_gemm_cost",
]
