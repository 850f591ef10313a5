"""Mask algebra shared across sparsity patterns.

A *keep-mask* is a boolean array the same shape as a weight matrix: True
where the weight survives, False where it is pruned.  All patterns in this
library (EW / VW / BW / TW / TEW) reduce to keep-masks, which makes sparsity
accounting and pattern comparison uniform.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "overall_sparsity",
    "topk_keep_mask",
    "global_topk_keep_masks",
    "validate_tw_mask",
    "tw_mask_from_tiles",
    "tw_mask_from_tile_matrix",
]


def overall_sparsity(masks: Sequence[np.ndarray]) -> float:
    """Element-weighted sparsity across several masks (the paper's global S)."""
    total = sum(int(np.asarray(m).size) for m in masks)
    if total == 0:
        return 0.0
    pruned = sum(int(np.asarray(m).size - np.count_nonzero(m)) for m in masks)
    return pruned / total


def topk_keep_mask(scores: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep the top ``(1 − sparsity)`` fraction of entries by score.

    Ties at the threshold are broken by flat index so the kept count is
    exact: ``round((1 − sparsity) · size)``.  This is the element-wise (EW)
    pruning rule and also the restore rule of the TEW overlay.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not (0.0 <= sparsity <= 1.0):
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    n_keep = int(round((1.0 - sparsity) * scores.size))
    mask = np.zeros(scores.shape, dtype=bool)
    if n_keep > 0:
        flat = scores.ravel()
        # argpartition gives the n_keep largest in O(n)
        keep_idx = np.argpartition(flat, scores.size - n_keep)[scores.size - n_keep :]
        mask.ravel()[keep_idx] = True
    return mask


def global_topk_keep_masks(
    scores: Sequence[np.ndarray], sparsity: float
) -> list[np.ndarray]:
    """Element-wise pruning with a single *global* ranking across layers.

    All score matrices are pooled; exactly the top ``(1 − sparsity)``
    fraction of elements (model-wide) survive.  This is the paper's EW
    baseline with global weight pruning (§V), and the source of the uneven
    per-layer sparsity in Fig. 5.
    """
    if not (0.0 <= sparsity <= 1.0):
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    mats = [np.asarray(s, dtype=np.float64) for s in scores]
    total = sum(m.size for m in mats)
    if total == 0:
        return [np.zeros(m.shape, dtype=bool) for m in mats]
    n_keep = int(round((1.0 - sparsity) * total))
    flat = np.concatenate([m.ravel() for m in mats])
    keep_flat = np.zeros(total, dtype=bool)
    if n_keep > 0:
        keep_idx = np.argpartition(flat, total - n_keep)[total - n_keep :]
        keep_flat[keep_idx] = True
    out = []
    offset = 0
    for m in mats:
        out.append(keep_flat[offset : offset + m.size].reshape(m.shape))
        offset += m.size
    return out


def _tw_mask_from_tiles_loop(
    shape: tuple[int, int],
    column_groups: Sequence[np.ndarray],
    row_masks: Sequence[np.ndarray],
) -> np.ndarray:
    """Per-tile scatter reference for :func:`tw_mask_from_tiles`.

    Kept as the oracle for the vectorised fast path, and used directly when
    tiles share columns (the fast path's one-shot column write would let a
    later tile overwrite an earlier tile's rows instead of unioning them).
    """
    out = np.zeros(shape, dtype=bool)
    for cols, mk in zip(column_groups, row_masks):
        mk = np.asarray(mk, dtype=bool)
        if np.asarray(cols).size:
            out[np.ix_(np.flatnonzero(mk), np.asarray(cols))] = True
    return out


def tw_mask_from_tiles(
    shape: tuple[int, int],
    column_groups: Sequence[np.ndarray],
    row_masks: Sequence[np.ndarray],
) -> np.ndarray:
    """Build the full element keep-mask implied by TW tile structure.

    Element ``(k, n)`` is kept iff column ``n`` belongs to some tile ``t``
    and ``row_masks[t][k]`` is True.

    Vectorised: every owned column is written in one fancy assignment into a
    column-major scratch (contiguous row writes), so no per-tile Python
    scatter runs.  The result may be a transposed (Fortran-ordered) view;
    values are identical to the per-tile reference scatter.
    """
    if len(column_groups) != len(row_masks):
        raise ValueError(
            f"{len(column_groups)} column groups but {len(row_masks)} row masks"
        )
    k, n = shape
    masks = []
    for mk in row_masks:
        mk = np.asarray(mk, dtype=bool)
        if mk.shape != (k,):
            raise ValueError(f"row mask length {mk.shape[0]} != K={k}")
        masks.append(mk)
    groups = [np.asarray(cols) for cols in column_groups]
    if not groups or not any(g.size for g in groups):
        return np.zeros(shape, dtype=bool)
    all_cols = np.concatenate([g for g in groups if g.size])
    if np.unique(all_cols).size != all_cols.size:
        return _tw_mask_from_tiles_loop(shape, column_groups, row_masks)
    tile_of_col = np.repeat(
        np.array([t for t, g in enumerate(groups) if g.size], dtype=np.int64),
        np.array([g.size for g in groups if g.size], dtype=np.int64),
    )
    stacked = np.stack(masks) if masks else np.zeros((0, k), dtype=bool)
    return tw_mask_from_tile_matrix(shape, all_cols, tile_of_col, stacked)


def tw_mask_from_tile_matrix(
    shape: tuple[int, int],
    owned_cols: np.ndarray,
    tile_of_col: np.ndarray,
    keep_matrix: np.ndarray,
) -> np.ndarray:
    """Keep-mask from pre-flattened tile structure (no per-tile validation).

    ``owned_cols[i]`` is a column owned by tile ``tile_of_col[i]`` (each
    column at most once); ``keep_matrix`` is the ``(n_tiles, K)`` boolean row
    keeps.  This is the allocation-free core of :func:`tw_mask_from_tiles`
    for callers that already hold the flattened structure (the vectorised
    pruning step).  Returns a transposed (Fortran-ordered) view.
    """
    k, n = shape
    out_t = np.zeros((n, k), dtype=bool)
    if owned_cols.size:
        out_t[owned_cols] = keep_matrix[tile_of_col]
    return out_t.T


def validate_tw_mask(
    mask: np.ndarray,
    granularity: int,
    *,
    reorganize: bool = True,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Check that an element mask has tile-wise structure; return its factors.

    A mask is TW-shaped iff there exists a column keep-vector and per-tile
    row keep-vectors that reproduce it, with tiles formed by grouping the
    surviving columns ``granularity`` at a time (``reorganize=True``, paper
    default) or by original panel boundaries (``reorganize=False``).

    Returns ``(col_keep, row_masks)`` on success; raises ``ValueError`` if
    the mask cannot be factored.
    """
    from repro.formats.tiled import TiledTWMatrix  # local import to avoid cycle

    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected 2-D mask, got ndim={mask.ndim}")
    col_keep = mask.any(axis=0)
    groups = TiledTWMatrix.column_groups(col_keep, granularity, reorganize=reorganize)
    row_masks = []
    for t, cols in enumerate(groups):
        panel = mask[:, cols]
        mk = panel.any(axis=1)
        if not np.array_equal(panel, np.broadcast_to(mk[:, None], panel.shape)):
            raise ValueError(
                f"tile {t}: mask is not tile-wise — rows are not uniform "
                "across the tile's surviving columns"
            )
        row_masks.append(mk)
    rebuilt = tw_mask_from_tiles(mask.shape, groups, row_masks)
    if not np.array_equal(rebuilt, mask):
        raise ValueError("mask does not factor into TW structure")
    return col_keep, row_masks
