"""Dense GEMM cost on tensor cores (the cuBLAS/CUTLASS "Dense-T" baseline).

Models one thread-block-tiled FP16 GEMM (Fig. 4 step 1 / Fig. 8):

- compute leg: ``2·M·N·K`` FLOPs at the tensor-core ceiling degraded by tile
  quantisation, wave quantisation, short-K pipeline efficiency, and the
  tile-size factor (cuBLAS picks the best tile from a small menu, as its
  heuristics do);
- memory leg: operand panels fetched through L2 with re-read factors from
  :func:`~repro.gpu.costmodel.l2_reread_factor`;
- one kernel launch.
"""

from __future__ import annotations

from repro.core.tiling import TileConfig
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.costmodel import (
    CostBreakdown,
    PerfCounters,
    l2_reread_factor,
    roofline_us,
    short_k_efficiency,
    tile_quantization,
    wave_efficiency,
)
from repro.gpu.device import DeviceSpec, V100

__all__ = ["dense_gemm_tc_cost", "CANDIDATE_TILES", "select_tile"]

#: The tile menu cuBLAS-like heuristics choose from (Ty × G).
CANDIDATE_TILES: tuple[TileConfig, ...] = (
    TileConfig(ty=128, g=128, tz=32),
    TileConfig(ty=128, g=64, tz=32),
    TileConfig(ty=64, g=128, tz=32),
    TileConfig(ty=64, g=64, tz=32),
    TileConfig(ty=32, g=32, tz=32),
)


def _tile_size_factor(tile: TileConfig) -> float:
    """Relative efficiency of smaller thread-block tiles (128×128 = 1.0).

    Smaller tiles fetch operands more often per FLOP and keep fewer MMA
    fragments in flight; the square-root law matches the observed ~2×
    throughput gap between 128×128 and 32×32 CUTLASS kernels.
    """
    return min(1.0, ((tile.ty * tile.g) / (128.0 * 128.0)) ** 0.5)


def _tile_efficiency(
    m: int, n: int, k: int, tile: TileConfig, device: DeviceSpec, calib: Calibration
) -> float:
    gm, gn = tile.grid(m, n)
    return (
        calib.tc_dense_efficiency
        * _tile_size_factor(tile)
        * tile_quantization(m, n, tile.ty, tile.g)
        * wave_efficiency(gm * gn, device)
        * short_k_efficiency(k, calib.tc_k_half_sat)
    )


def select_tile(
    m: int, n: int, k: int, device: DeviceSpec = V100, calib: Calibration = DEFAULT_CALIBRATION
) -> TileConfig:
    """Pick the candidate tile maximising modelled efficiency."""
    return max(
        CANDIDATE_TILES, key=lambda t: _tile_efficiency(m, n, k, t, device, calib)
    )


def dense_gemm_tc_cost(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec = V100,
    calib: Calibration = DEFAULT_CALIBRATION,
    tile: TileConfig | None = None,
    dtype_bytes: int = 2,
) -> CostBreakdown:
    """Price ``C(M×N) = A(M×K) @ B(K×N)`` on tensor cores (FP16 default)."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError(f"negative GEMM extent ({m}, {n}, {k})")
    if m == 0 or n == 0 or k == 0:
        return CostBreakdown(kernels=0, label="dense-tc")
    if tile is None:
        tile = select_tile(m, n, k, device, calib)
    eff = _tile_efficiency(m, n, k, tile, device, calib)
    flops = 2.0 * m * n * k

    gm, gn = tile.grid(m, n)
    a_bytes = m * k * dtype_bytes
    b_bytes = k * n * dtype_bytes
    loads = a_bytes * l2_reread_factor(a_bytes, gn, device.l2_cache_bytes) + (
        b_bytes * l2_reread_factor(b_bytes, gm, device.l2_cache_bytes)
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
            bytes_loaded=loads,
            bytes_stored=stores,
            sector_bytes=device.sector_bytes,
        ),
        label="dense-tc",
    )
