"""GEMM tile configuration shared by the pruner and the GPU cost model.

The paper's key insight is that dense GEMM is *already tiled*: the output
matrix ``C (M×N)`` is broken into ``Ty×G`` tiles, each computed by one
streaming multiprocessor (SM) from ``Ty`` rows of ``A`` and ``G`` columns of
``B`` (Fig. 4 step 1).  The TW pattern aligns its pruning units with that
decomposition, so tile geometry is the shared vocabulary between the pruning
algorithm (:mod:`repro.core.tile_sparsity`) and the execution cost model
(:mod:`repro.gpu`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TileConfig"]


@dataclass(frozen=True)
class TileConfig:
    """Thread-block GEMM tiling geometry (CUTLASS-style, paper Fig. 8).

    The warp and MMA-fragment levels below a thread block set no cost or
    kernel loop here, so they are not modelled.

    Attributes
    ----------
    ty:
        Thread-block tile height (rows of ``C`` per tile); paper uses 32–128.
    g:
        Thread-block tile width = the TW granularity ``G``.
    tz:
        Reduction (K-dimension) step per main-loop iteration; must be a
        multiple of the tensor-core MMA depth (16) in the paper's kernel.
    """

    ty: int = 128
    g: int = 128
    tz: int = 32

    def __post_init__(self) -> None:
        for name in ("ty", "g", "tz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def grid(self, m: int, n: int) -> tuple[int, int]:
        """Thread-block grid covering an ``M×N`` output (``ceil`` division)."""
        if m < 0 or n < 0:
            raise ValueError(f"negative GEMM extent ({m}, {n})")
        return (-(-m // self.ty), -(-n // self.g))

    def n_blocks(self, m: int, n: int) -> int:
        """Total thread blocks for an ``M×N`` output."""
        gm, gn = self.grid(m, n)
        return gm * gn
