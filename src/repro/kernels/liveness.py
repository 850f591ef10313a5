"""Cross-layer liveness: execute only what the next layer can see.

The paper's point is that a pruned column costs nothing (§VI,
``Store_C_Tile_with_Mask``).  Across a layer boundary it costs something
again: a column that no tile of layer *i* owns is an exact zero in layer
*i + 1*'s input, yet layer *i + 1*'s tiles still gather it for every kept
row that reads it.  :func:`tighten_chain` is the compile stage, run after
compaction, that removes those reads.  It derives one *execution format*
per layer from the pruned format and the epilogue of the layer before it:

- **No epilogue between the layers.**  A dead input column is an exact
  zero, so every kept tile row that reads it is dropped (``mask_k &=
  live``).  The dropped products are ``0 · w``.
- **Elementwise epilogue** (an :data:`~repro.kernels.fusion.EPILOGUES`
  entry flagged ``elementwise``, today ``bias_gelu``).  A dead column is
  the constant ``c_j = epilogue(0)_j`` in every row, computed in the
  runtime's activation dtype.  ``Σ_dead c_j · W[j, tile cols]`` is summed
  in float64, cast to the compute dtype, and carried as the format's
  ``out_bias``; the rows are then dropped.  A tile left with no rows
  still outputs its bias.
- **Any other epilogue** (``bias_layernorm``, residual epilogues): every
  column of the next layer's input may be nonzero, so liveness resets to
  "all live" and that layer is not tightened.

The model input is fully live, so the first layer is never tightened.
A row is dropped or folded only when its whole payload is finite: an
``inf`` or ``NaN`` weight keeps the untightened ``0 · inf = NaN``.  A
column whose constant is not finite counts as live.

The execution format keeps every tile, in the same order, with the same
columns and scale; only ``mask_k`` and the payload rows shrink.  A tile
that loses no row is the pruned tile object itself, and a layer that
loses none is its pruned format.  On dyadic float64 data a no-epilogue
edge is therefore exact against the untightened chain; a folded edge
differs by the rounding of the regrouped sum.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.formats.tiled import TiledTWMatrix, TWTile
from repro.kernels.fusion import EPILOGUES, EpilogueSpec, apply_epilogue
from repro.kernels.masked import activation_dtype, gemm_dtypes

__all__ = ["tighten_chain"]


def tighten_chain(
    formats: Sequence[TiledTWMatrix],
    epilogues: Sequence[EpilogueSpec | None],
) -> list[TiledTWMatrix]:
    """The execution format of every layer of a chained TW stack.

    ``formats`` are the pruned formats in chain order and ``epilogues``
    the epilogue each layer applies to its own output (``None`` for
    none).  Layer ``i`` is tightened by the live output columns of layer
    ``i - 1``; see the module docstring for the rules.  A layer whose
    ``K`` does not match the previous ``N`` (a stack that cannot run) is
    left as pruned.
    """
    if len(formats) != len(epilogues):
        raise ValueError(f"{len(epilogues)} epilogues for {len(formats)} formats")
    out: list[TiledTWMatrix] = []
    live = const = None  # the model input is fully live
    for tw, spec in zip(formats, epilogues):
        chained = live is not None and live.shape == (tw.shape[0],)
        out.append(_tighten(tw, live, const) if chained else tw)
        live, const = _output_liveness(tw, spec)
    return out


def _output_liveness(
    tw: TiledTWMatrix, spec: EpilogueSpec | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(live, const)`` of the input the next layer reads from ``tw``.

    ``live`` is ``None`` when every column may be nonzero; ``const``
    holds each dead column's value when it is not zero.
    """
    owned = np.zeros(tw.shape[1], dtype=bool)
    for t in tw.tiles:
        owned[t.col_indices] = True
    if spec is None:
        return owned, None
    if not EPILOGUES.create(spec.name).elementwise:
        return None, None
    zeros = np.zeros((1, tw.shape[1]), dtype=activation_dtype(tw.dtype))
    const = apply_epilogue(zeros, spec)[0]
    return owned | ~np.isfinite(const), const


def _tighten(
    tw: TiledTWMatrix, live: np.ndarray, const: np.ndarray | None = None
) -> TiledTWMatrix:
    """Drop ``tw``'s kept rows whose input column is not ``live`` (``bool[K]``).

    ``const`` (``float[K]``, optional) is the value every dead input
    column holds; its products are folded into ``out_bias``.  Without it
    the dead inputs are zeros and the rows are simply dropped.
    """
    compute = gemm_dtypes(activation_dtype(tw.dtype), tw.dtype)[0]
    bias = None
    if const is not None:
        const = np.asarray(const, dtype=np.float64)
        bias = np.zeros(tw.shape[1])
    tiles = []
    for t in tw.tiles:
        rows = t.row_indices()
        drop = ~live[rows]
        if drop.any() and t.data.dtype.kind == "f":
            drop &= np.isfinite(t.data).all(axis=1)
        if not drop.any():
            tiles.append(t)
            continue
        if bias is not None:
            w = t.data[drop]
            if w.dtype.kind in "iu":
                # dequantised as the untightened GEMM multiplies them
                w = w.astype(compute) * np.asarray(t.scale, dtype=compute)
            bias[t.col_indices] += const[rows[drop]] @ w.astype(np.float64)
        mask_k = t.mask_k.copy()
        mask_k[rows[drop]] = False
        tiles.append(TWTile(t.col_indices, mask_k, t.data[~drop], t.scale))
    out_bias = bias.astype(compute) if bias is not None and bias.any() else None
    if out_bias is None and all(a is b for a, b in zip(tiles, tw.tiles)):
        return tw
    return TiledTWMatrix(tw.shape, tw.granularity, tuple(tiles), out_bias=out_bias)
