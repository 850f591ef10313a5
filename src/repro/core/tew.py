"""Hybrid tile-element-wise (TEW) pattern — TW plus a small EW overlay.

Paper §IV-A "Pattern Overlay": to reach an overall sparsity of α with an EW
fraction δ, first prune to α+δ with pure TW, then *restore* the δ fraction of
elements (of the whole model) with the highest importance scores among those
TW pruned.  The restored elements are stored per tile in CSC format and
executed on CUDA cores, exploiting linearity:

    A · B_TEW = A · B_TW  +  A · B_residual.

TEW buys back most of TW's accuracy gap to EW with a tiny δ (Fig. 10a shows
δ=5% matching EW), at the price of a sparse CUDA-core kernel per layer —
worthwhile on devices without tensor cores (Fig. 10b).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.formats.csc import CSCMatrix

__all__ = ["TEWConfig", "TEWSolution", "tew_overlay"]


@dataclass(frozen=True)
class TEWConfig:
    """TEW overlay strength.

    Attributes
    ----------
    delta:
        Fraction of *all* model elements restored as EW (the paper sweeps
        δ ∈ {1%, 2.5%, 5%, 10%, 15%}).
    """

    delta: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


@dataclass
class TEWSolution:
    """Per-layer decomposition of a TEW-pruned model.

    Attributes
    ----------
    tw_masks:
        The pure-TW keep masks (one per layer).
    ew_masks:
        Restored-element masks, disjoint from the TW masks.
    masks:
        Element-wise union ``tw | ew`` — the effective keep masks.
    residuals:
        The restored values of each layer in CSC format (the execution
        payload for the CUDA-core pass).
    """

    tw_masks: list[np.ndarray]
    ew_masks: list[np.ndarray]
    masks: list[np.ndarray]
    residuals: list[CSCMatrix]

    @property
    def overall_sparsity(self) -> float:
        """Sparsity of the combined pattern."""
        total = sum(m.size for m in self.masks)
        kept = sum(int(np.count_nonzero(m)) for m in self.masks)
        return 1.0 - kept / total if total else 0.0


def tew_overlay(
    weights: Sequence[np.ndarray],
    scores: Sequence[np.ndarray],
    tw_masks: Sequence[np.ndarray],
    config: TEWConfig,
) -> TEWSolution:
    """Overlay an EW restore pass on TW-pruned layers (global ranking).

    Parameters
    ----------
    weights:
        Dense weight matrices (original values; restored elements take their
        values from here).
    scores:
        Element importance matrices used to choose what to restore.
    tw_masks:
        Keep masks produced by the TW pruner at sparsity ``α + δ``.
    config:
        Overlay strength δ.

    Returns
    -------
    TEWSolution whose overall sparsity is ``α`` (i.e. the TW sparsity minus
    the δ restored fraction, up to rounding).
    """
    if not (len(weights) == len(scores) == len(tw_masks)):
        raise ValueError("weights, scores and tw_masks must have equal lengths")
    ws = [np.asarray(w, dtype=np.float64) for w in weights]
    sc = [np.asarray(s, dtype=np.float64) for s in scores]
    tm = [np.asarray(m, dtype=bool) for m in tw_masks]
    for i, (w, s, m) in enumerate(zip(ws, sc, tm)):
        if not (w.shape == s.shape == m.shape):
            raise ValueError(f"layer {i}: shapes disagree {w.shape}/{s.shape}/{m.shape}")

    total = sum(w.size for w in ws)
    n_restore = int(round(config.delta * total))

    # candidates = TW-pruned elements, globally ranked by score
    cand_scores: list[np.ndarray] = []
    cand_layer: list[np.ndarray] = []
    cand_flat: list[np.ndarray] = []
    for li, (s, m) in enumerate(zip(sc, tm)):
        pruned_flat = np.flatnonzero(~m.ravel())
        cand_scores.append(s.ravel()[pruned_flat])
        cand_layer.append(np.full(pruned_flat.size, li, dtype=np.int64))
        cand_flat.append(pruned_flat)
    ew_masks = [np.zeros(m.shape, dtype=bool) for m in tm]
    if n_restore > 0 and cand_scores:
        all_scores = np.concatenate(cand_scores)
        all_layers = np.concatenate(cand_layer)
        all_flat = np.concatenate(cand_flat)
        n_restore = min(n_restore, all_scores.size)
        top = np.argpartition(-all_scores, n_restore - 1)[:n_restore] if n_restore else []
        for idx in np.asarray(top):
            ew_masks[all_layers[idx]].ravel()[all_flat[idx]] = True

    masks = [t | e for t, e in zip(tm, ew_masks)]
    residuals = [
        CSCMatrix.from_dense(np.where(e, w, 0.0)) for w, e in zip(ws, ew_masks)
    ]
    return TEWSolution(tw_masks=tm, ew_masks=ew_masks, masks=masks, residuals=residuals)
