"""Vector-wise (VW) pattern — balanced per-vector pruning.

Divides every *column* of the weight matrix into vectors of ``vector_size``
elements (along the reduction dimension K) and prunes the same fraction
inside each vector by local importance rank (Zhu et al. MICRO'19, Yao et al.
AAAI'19; the paper uses vector size 16, Fig. 2 shows 4×1 vectors).

The fixed per-vector quota is what makes VW hardware-schedulable (every
vector has the same non-zero count) — and also what prevents it from
expressing the uneven sparsity distribution across columns and layers
(paper §IV-B "Against VW"), costing accuracy at high sparsity.

VW cannot run faster than dense on unmodified GPUs; the paper executes it
through cuSparse on CUDA cores (Fig. 3) and it requires the modified sparse
tensor core of Zhu et al. to see speedup.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.patterns.base import Pattern, PatternResult

__all__ = ["VectorWisePattern"]


class VectorWisePattern(Pattern):
    """Fixed-quota pruning inside K-direction vectors.

    Parameters
    ----------
    vector_size:
        Elements per vector (paper evaluation: 16).  The last vector of a
        column may be shorter when ``K % vector_size != 0``; it receives a
        proportionally-rounded quota.
    """

    name = "VW"

    def __init__(self, vector_size: int = 16) -> None:
        if vector_size <= 0:
            raise ValueError(f"vector_size must be positive, got {vector_size}")
        self.vector_size = vector_size

    def prune(
        self, scores: Sequence[np.ndarray], sparsity: float
    ) -> PatternResult:
        mats = self._check_inputs(scores, sparsity)
        masks = [self._prune_one(m, sparsity) for m in mats]
        return PatternResult(masks=masks)

    def _prune_one(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        k, n = scores.shape
        v = self.vector_size
        mask = np.zeros((k, n), dtype=bool)
        n_full = k // v
        if n_full:
            # vectorised path for the full vectors: (n_full, v, n) view
            body = scores[: n_full * v].reshape(n_full, v, n)
            keep_per_vec = v - int(round(sparsity * v))
            if keep_per_vec > 0:
                # rank within each vector: keep the keep_per_vec largest
                order = np.argsort(-body, axis=1, kind="stable")
                keep_idx = order[:, :keep_per_vec, :]
                grid_g, grid_n = np.meshgrid(
                    np.arange(n_full), np.arange(n), indexing="ij"
                )
                body_mask = np.zeros((n_full, v, n), dtype=bool)
                for j in range(keep_per_vec):
                    body_mask[grid_g, keep_idx[:, j, :], grid_n] = True
                mask[: n_full * v] = body_mask.reshape(n_full * v, n)
        rem = k - n_full * v
        if rem:
            tail = scores[n_full * v :]
            keep_tail = rem - int(round(sparsity * rem))
            if keep_tail > 0:
                order = np.argsort(-tail, axis=0, kind="stable")
                tail_mask = np.zeros((rem, n), dtype=bool)
                cols = np.arange(n)
                for j in range(keep_tail):
                    tail_mask[order[j, :], cols] = True
                mask[n_full * v :] = tail_mask
        return mask
