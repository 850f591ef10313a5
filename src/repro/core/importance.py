"""Element importance scores and their aggregation to pruning units.

The paper (§V, Eq. 1–3) scores a weight ``w`` by the loss increase incurred
when it is removed:

.. math::

    \\Delta L(w) = \\sqrt{(L(w{=}w_i) - L(w{=}0))^2}
    \\approx \\sqrt{\\left(\\frac{\\partial L(w_i)}{\\partial w} \\, w_i\\right)^2}
    = \\left|\\frac{\\partial L}{\\partial w} \\, w_i\\right|

(first-order Taylor expansion around the trained value, following
Molchanov et al.).  Both the weight and its gradient already exist during
training, so the score is free to compute.  The simpler magnitude score
``|w|`` (Han et al.) is provided as a baseline.

Unit aggregation: TW prunes *columns* (``K×1`` units) and *tile rows*
(``1×G`` units, paper Alg. 1 lines 4/13), scored by the collective importance
of their member elements.

Importance metrics resolve through :data:`IMPORTANCE` (the same
:class:`~repro.registry.Registry` class as patterns, engines,
executors and schedules): ``taylor`` (the paper default) and
``magnitude`` (alias ``mag``) are the seed entries, each a factory for an
:class:`ImportanceConfig` that also accepts the ``reduction``/``normalize``
knobs.  ``repro.tune(..., importance="taylor")`` and the CLI resolve names
here, so a new metric is a ``register(...)`` call, not a new code path.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.registry import Registry

__all__ = [
    "ImportanceConfig",
    "IMPORTANCE",
    "resolve_importance",
    "available_importance",
    "magnitude_score",
    "taylor_score",
    "exact_loss_delta",
    "normalize_scores",
    "column_unit_scores",
    "row_unit_scores",
    "row_unit_scores_matrix",
    "score_matrix",
]


@dataclass(frozen=True)
class ImportanceConfig:
    """How element scores are computed and pooled into units.

    Attributes
    ----------
    method:
        ``"taylor"`` (paper default, needs gradients) or ``"magnitude"``.
    reduction:
        How a unit pools its member element scores: ``"sum"`` (paper's
        "collective importance"), ``"mean"``, or ``"l2"``.
    normalize:
        Cross-layer normalisation before global ranking: ``"none"`` (paper
        default — Taylor scores are loss deltas and already commensurable),
        ``"mean"`` (divide by per-matrix mean; recommended for magnitude
        scores), or ``"l2"``.
    """

    method: str = "taylor"
    reduction: str = "sum"
    normalize: str = "none"

    def __post_init__(self) -> None:
        if self.method not in ("taylor", "magnitude"):
            raise ValueError(f"unknown importance method {self.method!r}")
        if self.reduction not in ("sum", "mean", "l2"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.normalize not in ("none", "mean", "l2"):
            raise ValueError(f"unknown normalization {self.normalize!r}")


#: name → ImportanceConfig factory; ``repro.tune`` and the CLI resolve here
IMPORTANCE = Registry("importance")
IMPORTANCE.register(
    "taylor",
    lambda reduction="sum", normalize="none": ImportanceConfig(
        method="taylor", reduction=reduction, normalize=normalize
    ),
)
IMPORTANCE.register(
    "magnitude",
    lambda reduction="sum", normalize="none": ImportanceConfig(
        method="magnitude", reduction=reduction, normalize=normalize
    ),
    aliases=("mag",),
)


def resolve_importance(
    spec: "ImportanceConfig | str | None", **kwargs
) -> ImportanceConfig:
    """An :class:`ImportanceConfig` from a registry name, instance, or ``None``.

    ``None`` means the default ``taylor`` entry.  Extra ``kwargs``
    (``reduction``, ``normalize``) are forwarded to the factory with
    ``None`` values dropped; an instance passes through untouched.
    """
    if isinstance(spec, ImportanceConfig):
        return spec
    if spec is None:
        spec = "taylor"
    if not isinstance(spec, str):
        raise TypeError(
            f"importance must be an ImportanceConfig, a registry name or "
            f"None, got {type(spec).__name__}"
        )
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return IMPORTANCE.create(spec, **kwargs)


def available_importance() -> list[str]:
    """Canonical importance-metric names."""
    return IMPORTANCE.names()


def magnitude_score(weights: np.ndarray) -> np.ndarray:
    """Per-element magnitude importance ``|w|`` (Han et al. 2015)."""
    return np.abs(np.asarray(weights, dtype=np.float64))


def taylor_score(weights: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Per-element first-order Taylor importance ``|w · ∂L/∂w|`` (Eq. 3)."""
    weights = np.asarray(weights, dtype=np.float64)
    gradients = np.asarray(gradients, dtype=np.float64)
    if weights.shape != gradients.shape:
        raise ValueError(
            f"weights shape {weights.shape} != gradients shape {gradients.shape}"
        )
    return np.abs(weights * gradients)


def exact_loss_delta(
    loss_fn: Callable[[np.ndarray], float], weights: np.ndarray
) -> np.ndarray:
    """Exact importance of Eq. 1: ``|L(w=w_i) − L(w=0)|`` per element.

    Evaluates the loss once per parameter, so it is only tractable for tiny
    matrices; used in tests to verify that :func:`taylor_score` is a faithful
    first-order approximation (paper §V "the exact computation is expensive
    because M parameters require evaluating M versions of the network").
    """
    weights = np.asarray(weights, dtype=np.float64)
    base = float(loss_fn(weights))
    out = np.empty(weights.shape, dtype=np.float64)
    it = np.nditer(weights, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = weights[idx]
        weights[idx] = 0.0
        out[idx] = abs(float(loss_fn(weights)) - base)
        weights[idx] = saved
    return out


def score_matrix(
    weights: np.ndarray,
    gradients: np.ndarray | None,
    config: ImportanceConfig,
) -> np.ndarray:
    """Element score matrix for one layer under ``config``."""
    if config.method == "taylor":
        if gradients is None:
            raise ValueError("taylor importance requires gradients")
        return taylor_score(weights, gradients)
    return magnitude_score(weights)


def normalize_scores(scores: np.ndarray, mode: str) -> np.ndarray:
    """Normalise a score matrix for cross-layer comparability."""
    if mode == "none":
        return scores
    if mode == "mean":
        denom = scores.mean()
    elif mode == "l2":
        denom = np.sqrt(np.mean(scores**2))
    else:
        raise ValueError(f"unknown normalization {mode!r}")
    return scores / denom if denom > 0 else scores


def _reduce(values: np.ndarray, axis: int, reduction: str) -> np.ndarray:
    if reduction == "sum":
        return values.sum(axis=axis)
    if reduction == "mean":
        return values.mean(axis=axis)
    if reduction == "l2":
        return np.sqrt((values**2).sum(axis=axis))
    raise ValueError(f"unknown reduction {reduction!r}")


def column_unit_scores(scores: np.ndarray, reduction: str = "sum") -> np.ndarray:
    """Score each ``K×1`` column unit of one matrix (Alg. 1 line 4–5).

    Returns ``float64[N]``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected 2-D score matrix, got ndim={scores.ndim}")
    return _reduce(scores, axis=0, reduction=reduction)


def row_unit_scores(
    scores: np.ndarray,
    column_groups: Sequence[np.ndarray],
    reduction: str = "sum",
) -> list[np.ndarray]:
    """Score each ``1×G`` row unit of each reorganised tile (Alg. 1 line 13–14).

    ``column_groups[t]`` holds the (surviving) column indices of tile ``t``;
    the row unit ``(t, r)`` pools ``scores[r, column_groups[t]]``.  Returns
    one ``float64[K]`` array per tile.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected 2-D score matrix, got ndim={scores.ndim}")
    out = []
    for cols in column_groups:
        if cols.size == 0:
            out.append(np.zeros(scores.shape[0], dtype=np.float64))
        else:
            out.append(_reduce(scores[:, cols], axis=1, reduction=reduction))
    return out


def row_unit_scores_matrix(
    scores: np.ndarray,
    column_groups: Sequence[np.ndarray],
    reduction: str = "sum",
    normalize: str = "none",
    *,
    assume_sorted: bool = False,
) -> np.ndarray:
    """Vectorised :func:`row_unit_scores`, returned as one ``(T, K)`` array.

    Each tile's member columns are sorted, so they live inside a contiguous
    span ``[cols[0], cols[-1]+1)`` of the original matrix; the tile's row
    sums are then one BLAS ``dgemv`` of that span against a 0/1 selection
    vector — no per-tile column gather.  This is the hot path of the global
    TW pruning step at model scale (the gather is ~3× slower at BERT-base).

    Equals ``np.stack(row_unit_scores(...))`` exactly whenever the per-tile
    sums are exactly representable (e.g. integer-valued scores); otherwise
    the two may differ by re-association rounding of a few ulp.  Groups with
    unsorted or duplicate columns fall back to the reference gather;
    ``assume_sorted`` skips that per-group check for callers that guarantee
    it (the pruning step's reorganised tiles are always sorted).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected 2-D score matrix, got ndim={scores.ndim}")
    scores = normalize_scores(scores, normalize)
    k = scores.shape[0]
    if assume_sorted and len(column_groups) > 192 and reduction in ("sum", "mean"):
        # hundreds of narrow tiles: one bulk column gather beats thousands
        # of tiny per-span dgemv calls
        gathered = _gathered_tile_scores(scores, column_groups, reduction)
        if gathered is not None:
            return gathered
    out = np.zeros((len(column_groups), k), dtype=np.float64)
    for t, cols in enumerate(column_groups):
        cols = np.asarray(cols)
        if cols.size == 0:
            continue
        if not assume_sorted and cols.size > 1 and np.any(np.diff(cols) <= 0):
            out[t] = _reduce(scores[:, cols], axis=1, reduction=reduction)
            continue
        lo, hi = int(cols[0]), int(cols[-1]) + 1
        select = np.zeros(hi - lo, dtype=np.float64)
        select[cols - lo] = 1.0
        with np.errstate(invalid="ignore"):  # 0·inf NaNs are repaired below
            if reduction == "sum":
                out[t] = scores[:, lo:hi] @ select
            elif reduction == "mean":
                out[t] = (scores[:, lo:hi] @ select) / cols.size
            elif reduction == "l2":
                span = scores[:, lo:hi]
                out[t] = np.sqrt((span * span) @ select)
            else:
                raise ValueError(f"unknown reduction {reduction!r}")
    if np.isnan(out).any():
        # a non-member column inside a span holding ±inf contaminates the
        # dgemv with 0·inf = NaN; the reference gather never touches
        # non-members, so recompute the NaN rows its way (a NaN that the
        # gather reproduces was a genuine member NaN and stays)
        for t, cols in enumerate(column_groups):
            cols = np.asarray(cols)
            if cols.size and np.isnan(out[t]).any():
                out[t] = _reduce(scores[:, cols], axis=1, reduction=reduction)
    return out


def _gathered_tile_scores(
    scores: np.ndarray, column_groups: Sequence[np.ndarray], reduction: str
) -> np.ndarray | None:
    """Tile row sums via one flat gather + reshape (narrow-tile fast path).

    Requires every tile but the last to share one width (the reorganised
    layout); returns ``None`` when widths are ragged so the caller can use
    the per-span path.  The reshape reduces each tile's columns with the
    same pairwise summation the reference applies to its gathered slice.
    """
    k, n = scores.shape
    widths = np.array([np.asarray(g).size for g in column_groups], dtype=np.int64)
    if widths.size == 0 or np.any(widths == 0) or np.any(widths[:-1] != widths[0]):
        # ragged or empty groups: let the per-group path handle them (an
        # empty group must score 0, not 0/0)
        return None
    g = int(widths[0])
    all_cols = np.concatenate([np.asarray(c) for c in column_groups])
    flat = (np.arange(k)[:, None] * n + all_cols[None, :]).ravel()
    gathered = scores.ravel()[flat].reshape(k, all_cols.size)
    n_full = widths.size - 1 if widths[-1] != g else widths.size
    out = np.empty((widths.size, k), dtype=np.float64)
    if n_full:
        out[:n_full] = (
            gathered[:, : n_full * g].reshape(k, n_full, g).sum(axis=2).T
        )
    if n_full != widths.size:
        out[-1] = gathered[:, n_full * g :].sum(axis=1)
    if reduction == "mean":
        out /= widths[:, None]
    return out
