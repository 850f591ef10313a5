"""BlockSparse-like BSR GEMM cost (the BW execution path on tensor cores).

The torch-blocksparse library multiplies only the surviving dense blocks on
tensor cores, but at a fraction of cuBLAS efficiency: its generic block
kernel cannot match the closed-source dense pipelines, small blocks
under-fill MMA fragments, and large blocks suffer wave quantisation.  The
calibrated efficiency curve (:meth:`Calibration.block_sparse_efficiency`)
peaks at 32×32 — the block size the paper (citing Child et al.) says BW
needs "for maintaining high performance" — and reproduces the paper's
anchors: BW ≈3× slower than dense-T at its accuracy-matched sparsity
(Fig. 3) and BW-64 break-even only above ~90 % sparsity (Fig. 9b).
"""

from __future__ import annotations

from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.costmodel import (
    CostBreakdown,
    PerfCounters,
    roofline_us,
    wave_efficiency,
)
from repro.gpu.device import DeviceSpec, V100

__all__ = ["bsr_gemm_cost"]


def bsr_gemm_cost(
    m: int,
    k: int,
    n: int,
    block_size: int,
    n_kept_blocks: int,
    device: DeviceSpec = V100,
    calib: Calibration = DEFAULT_CALIBRATION,
    dtype_bytes: int = 2,
) -> CostBreakdown:
    """Price ``Y(M×N) = X(M×K) @ W(K×N)`` with block-sparse ``W``.

    ``n_kept_blocks`` square blocks of ``block_size`` survive pruning.
    """
    if min(m, k, n) < 0 or n_kept_blocks < 0:
        raise ValueError(f"negative extent ({m}, {k}, {n}, blocks={n_kept_blocks})")
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    total_blocks = -(-k // block_size) * -(-n // block_size)
    if n_kept_blocks > total_blocks:
        raise ValueError(
            f"n_kept_blocks={n_kept_blocks} exceeds grid capacity {total_blocks}"
        )
    if m == 0 or n == 0 or k == 0 or n_kept_blocks == 0:
        return CostBreakdown(kernels=0, label="blocksparse")

    flops = 2.0 * m * block_size * block_size * n_kept_blocks
    # one thread block per (kept weight block × M row-panel of block_size)
    launched_blocks = n_kept_blocks * -(-m // max(block_size, 32))
    eff = calib.block_sparse_efficiency(block_size) * wave_efficiency(
        launched_blocks, device
    )
    # block payloads + int32 block indices + A panel per kept block + output
    loads = (
        n_kept_blocks * block_size * block_size * dtype_bytes
        + n_kept_blocks * 8
        + n_kept_blocks * m * block_size * dtype_bytes / 4.0  # L2-assisted A reuse
    )
    stores = float(m * n * dtype_bytes)
    compute_us, memory_us = roofline_us(
        flops, device.tensor_core_flops * eff, loads + stores, device.mem_bandwidth
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
        label="blocksparse",
    )
