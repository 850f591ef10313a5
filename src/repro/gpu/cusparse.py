"""cuSparse-like CSR SpMM cost (the EW / VW execution path, CUDA cores only).

cuSparse's csrmm is dominated by irregular gathers: each stored non-zero of
the weight matrix triggers a strided fetch of an activation row segment, so
its *effective* FLOP rate is a few percent of the CUDA-core peak regardless
of shape — public measurements on DNN-shaped matrices sit at 2–8 %.  This is
precisely why EW/VW sparse models lose to dense below ~93–95 % sparsity
(paper §II-B, Fig. 3), and why VW needs Zhu et al.'s modified tensor core to
pay off.

Cost: ``2·M·nnz`` useful FLOPs at ``cuda_peak · spmm_efficiency``, plus the
value/index/gather traffic for the counters.  Time is compute-leg dominated
by construction, matching the observed shape-independence of cuSparse
throughput.
"""

from __future__ import annotations

from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.costmodel import CostBreakdown, PerfCounters, roofline_us
from repro.gpu.device import DeviceSpec, V100

__all__ = ["csr_spmm_cost"]


def csr_spmm_cost(
    m: int,
    k: int,
    n: int,
    nnz: int,
    device: DeviceSpec = V100,
    calib: Calibration = DEFAULT_CALIBRATION,
    dtype_bytes: int = 4,
) -> CostBreakdown:
    """Price ``Y(M×N) = X(M×K) @ W(K×N)`` with ``W`` sparse (``nnz`` stored).

    cuSparse executes the transposed product with ``Wᵀ`` in CSR; the cost is
    orientation-independent in this model.
    """
    if min(m, k, n) < 0 or nnz < 0:
        raise ValueError(f"negative extent ({m}, {k}, {n}, nnz={nnz})")
    if nnz > k * n:
        raise ValueError(f"nnz={nnz} exceeds matrix capacity {k * n}")
    if m == 0 or n == 0 or k == 0:
        return CostBreakdown(kernels=0, label="cusparse")
    flops = 2.0 * m * nnz
    # value + int32 column index per nnz, plus the activation gather after
    # cache reuse, plus streaming the dense output once.
    loads = nnz * (dtype_bytes + 4) + nnz * calib.spmm_gather_bytes_per_nnz + (
        m * k * dtype_bytes
    )
    stores = float(m * n * dtype_bytes)
    compute_us, memory_us = roofline_us(
        flops,
        device.cuda_core_flops * calib.spmm_efficiency,
        loads + stores,
        device.mem_bandwidth,
    )
    return CostBreakdown(
        compute_us=compute_us,
        memory_us=memory_us,
        launch_us=device.kernel_launch_us,
        kernels=1,
        counters=PerfCounters(
            flops=flops,
            bytes_loaded=float(loads),
            bytes_stored=stores,
            sector_bytes=device.sector_bytes,
        ),
        label="cusparse",
    )
