"""N:M structured sparsity — the modern successor of vector-wise pruning.

The paper's §VIII anticipates hardware/pattern co-design beyond VW; one
year after SC'20, NVIDIA Ampere shipped exactly that: *2:4 sparsity* (keep
N of every M consecutive weights along the reduction dimension) with
hardware support in the sparse tensor core.  N:M is VW with vector size M
and a fixed quota N — included here both as a forward-looking extension
and as a second datapoint for the paper's central argument: like VW, N:M
needs *hardware* support, whereas TW runs on unmodified dense pipelines.

The pattern prunes each length-``m`` group along K to its ``n`` largest
elements by importance.  Accuracy-wise it behaves like VW with an even
tighter constraint (the paper's irregularity ordering predicts
EW > TW > VW ≥ N:M at equal sparsity, since N:M cannot even choose its
per-vector quota).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.patterns.base import Pattern, PatternResult

__all__ = ["NMSparsityPattern"]


class NMSparsityPattern(Pattern):
    """Keep ``n`` of every ``m`` consecutive weights along K.

    Parameters
    ----------
    n, m:
        The quota and group size; Ampere's hardware mode is ``n=2, m=4``.
        The achievable sparsity is fixed at ``1 − n/m`` — the ``sparsity``
        argument of :meth:`prune` is validated against it rather than used
        as a free target (there is no other sparsity an N:M pattern can
        express, which is precisely its limitation).
    """

    name = "NM"

    def __init__(self, n: int = 2, m: int = 4) -> None:
        if m <= 0 or not (0 < n <= m):
            raise ValueError(f"need 0 < n <= m, got n={n}, m={m}")
        self.n = n
        self.m = m

    @property
    def fixed_sparsity(self) -> float:
        """The only sparsity this pattern can express: ``1 − n/m``."""
        return 1.0 - self.n / self.m

    def prune(
        self, scores: Sequence[np.ndarray], sparsity: float | None = None
    ) -> PatternResult:
        """Prune every K-direction group to its ``n`` best elements.

        ``sparsity``, if given, must equal ``fixed_sparsity`` (tolerance
        1e-6); pass ``None`` to accept the pattern's intrinsic level.
        """
        if sparsity is None:
            sparsity = self.fixed_sparsity
        if abs(sparsity - self.fixed_sparsity) > 1e-6:
            raise ValueError(
                f"{self.n}:{self.m} sparsity is fixed at "
                f"{self.fixed_sparsity:.4f}; got {sparsity}"
            )
        mats = self._check_inputs(scores, sparsity)
        return PatternResult(masks=[self._prune_one(s) for s in mats])

    def _prune_one(self, scores: np.ndarray) -> np.ndarray:
        k, cols = scores.shape
        mask = np.zeros((k, cols), dtype=bool)
        n_full = k // self.m
        if n_full:
            body = scores[: n_full * self.m].reshape(n_full, self.m, cols)
            order = np.argsort(-body, axis=1, kind="stable")
            grid_g, grid_c = np.meshgrid(
                np.arange(n_full), np.arange(cols), indexing="ij"
            )
            body_mask = np.zeros_like(body, dtype=bool)
            for j in range(self.n):
                body_mask[grid_g, order[:, j, :], grid_c] = True
            mask[: n_full * self.m] = body_mask.reshape(n_full * self.m, cols)
        rem = k - n_full * self.m
        if rem:
            tail = scores[n_full * self.m :]
            quota = max(1, int(round(self.n / self.m * rem)))
            order = np.argsort(-tail, axis=0, kind="stable")
            tail_mask = np.zeros((rem, cols), dtype=bool)
            col_idx = np.arange(cols)
            for j in range(min(quota, rem)):
                tail_mask[order[j, :], col_idx] = True
            mask[n_full * self.m :] = tail_mask
        return mask
