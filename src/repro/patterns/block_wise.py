"""Block-wise (BW) pattern — whole-block pruning.

Divides the weight matrix into fixed ``block_shape`` blocks and prunes whole
blocks by their collective importance (Narang et al. 2017).  Surviving
blocks stay dense, so BW executes on tensor cores through block-sparse GEMM
libraries (the paper uses Tillet's torch-blocksparse) — but the coarse
granularity destroys accuracy: Fig. 6 shows BW captures far fewer of EW's
zeros than TW at equal element budget, and Fig. 9a shows a 4% accuracy drop
at 75% sparsity for 64×64 blocks.

Blocks are ranked *globally* across layers with an element-weighted budget,
mirroring the TW pruner's global ranking so comparisons isolate the pattern
shape (not the ranking scope).  Edge blocks (when the matrix is not an exact
multiple of the block shape) are allowed and weighted by their true element
count.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.patterns.base import Pattern, PatternResult

__all__ = ["BlockWisePattern"]


class BlockWisePattern(Pattern):
    """Whole-block top-k pruning.

    Parameters
    ----------
    block_shape:
        ``(rows, cols)`` of the pruning unit; the paper evaluates 8×8,
        32×32 and 64×64.
    reduction:
        Block score pooling: ``"sum"`` (default), ``"mean"``, or ``"l2"``.
        ``"mean"`` makes edge blocks commensurate with full blocks.
    """

    name = "BW"

    def __init__(
        self, block_shape: tuple[int, int] = (32, 32), reduction: str = "mean"
    ) -> None:
        br, bc = block_shape
        if br <= 0 or bc <= 0:
            raise ValueError(f"block_shape must be positive, got {block_shape}")
        if reduction not in ("sum", "mean", "l2"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.block_shape = (br, bc)
        self.reduction = reduction

    def prune(
        self, scores: Sequence[np.ndarray], sparsity: float
    ) -> PatternResult:
        mats = self._check_inputs(scores, sparsity)
        br, bc = self.block_shape

        # enumerate blocks across all layers
        block_scores: list[float] = []
        block_sizes: list[int] = []
        block_loc: list[tuple[int, int, int]] = []  # (layer, r0, c0)
        for li, m in enumerate(mats):
            k, n = m.shape
            for r0 in range(0, k, br):
                for c0 in range(0, n, bc):
                    blk = m[r0 : r0 + br, c0 : c0 + bc]
                    if self.reduction == "sum":
                        s = float(blk.sum())
                    elif self.reduction == "mean":
                        s = float(blk.mean())
                    else:
                        s = float(np.sqrt((blk**2).sum()))
                    block_scores.append(s)
                    block_sizes.append(blk.size)
                    block_loc.append((li, r0, c0))

        scores_arr = np.array(block_scores, dtype=np.float64)
        sizes_arr = np.array(block_sizes, dtype=np.float64)
        total = float(sizes_arr.sum())
        target_keep = (1.0 - sparsity) * total
        order = np.lexsort((np.arange(scores_arr.size), -scores_arr))
        masks = [np.zeros(m.shape, dtype=bool) for m in mats]
        used = 0.0
        for idx in order:
            if used >= target_keep:
                break
            li, r0, c0 = block_loc[idx]
            masks[li][r0 : r0 + br, c0 : c0 + bc] = True
            used += sizes_arr[idx]
        return PatternResult(masks=masks)
