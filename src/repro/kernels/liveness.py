"""Cross-layer liveness: execute only what the next layer can see.

The paper's point is that a pruned column costs nothing (§VI,
``Store_C_Tile_with_Mask``).  Across a layer boundary it costs something
again: a column that no tile of layer *i* owns is an exact zero in layer
*i + 1*'s input, yet layer *i + 1*'s tiles still gather it for every kept
row that reads it, ``tw_gemm`` still zero-fills and stores it, and the
epilogue still runs over it.  :func:`tighten_chain` is the compile stage,
run after compaction, that removes all three.  It derives one *execution
format* and one *execution epilogue* per layer from the pruned format and
the epilogues of the chain.

**Tightening** drops the kept rows that read a dead column:

- **No epilogue between the layers.**  A dead input column is an exact
  zero, so every kept tile row that reads it is dropped.  The dropped
  products are ``0 · w``.
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

**Live coordinates.**  On every tightened edge *i → i + 1* the stage then
shrinks layer *i*'s ``N`` and layer *i + 1*'s ``K`` to one index set: the
columns some tile of layer *i* owns, plus the rows some tile of layer
*i + 1* still reads.  The second term keeps the column of every row that
was not dropped (a non-finite payload, a non-finite constant), holding 0
or its constant, so the untightened NaN stays.  Only ``col_indices``,
``mask_k`` and ``out_bias`` are re-indexed; the layer's execution
epilogue is its epilogue with the parameter vectors sliced to the same
set.  What stays full:

- layer 0's ``K`` and the last layer's ``N``, so the model's input and
  output shapes do not change and nothing is scattered;
- the ``N`` of a layer whose epilogue is not elementwise (its row
  statistics and dropout mask depend on the width): the edge after it is
  not tightened;
- the ``K`` of a layer whose epilogue takes a residual, because the
  residual is its input.

The drop and index sets are computed first, and each tile is then built
once.  The execution format keeps every tile, in the
same order, with the same payload rows and scale.  A tile that neither
loses a row nor moves is the pruned tile object itself, and a layer with
no such change is its pruned format.  On dyadic float64 data a
no-epilogue edge is therefore exact against the untightened chain; a
folded edge differs by the rounding of the regrouped sum.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.formats.tiled import TiledTWMatrix, TWTile
from repro.kernels.fusion import EPILOGUES, EpilogueSpec, apply_epilogue
from repro.kernels.masked import activation_dtype

__all__ = ["tighten_chain"]

#: per tile of a tightened layer: its kept rows and which of them it drops
_Drops = list[tuple[np.ndarray, np.ndarray]]


def tighten_chain(
    formats: Sequence[TiledTWMatrix],
    epilogues: Sequence[EpilogueSpec | None],
) -> list[tuple[TiledTWMatrix, EpilogueSpec | None]]:
    """The execution format and epilogue of every layer of a chained TW stack.

    ``formats`` are the pruned formats in chain order and ``epilogues``
    the epilogue each layer applies to its own output (``None`` for
    none).  Returns one ``(format, epilogue)`` pair per layer, in live
    coordinates: chaining ``tw_gemm`` and ``apply_epilogue`` over the
    pairs computes the pruned model.  See the module docstring for the
    rules.  A layer whose ``K`` does not match the previous ``N`` (a stack
    that cannot run) is left as pruned.
    """
    if len(formats) != len(epilogues):
        raise ValueError(f"{len(epilogues)} epilogues for {len(formats)} formats")
    # pass 1, no tile built yet: the rows each layer drops ...
    drops: list[_Drops | None] = []
    consts: list[np.ndarray | None] = []
    owned = [_owned(tw) for tw in formats]
    live = const = None  # the model input is fully live
    for tw, spec, own in zip(formats, epilogues, owned):
        chained = live is not None and live.shape == (tw.shape[0],)
        drops.append(_drops(tw, live) if chained else None)
        consts.append(const if chained else None)
        live, const = _output_liveness(tw, spec, own)
    # ... and the columns each tightened edge keeps
    keep: list[np.ndarray | None] = [None] * len(formats)
    for i in range(len(formats) - 1):
        spec = epilogues[i + 1]
        if drops[i + 1] is None or (
            spec is not None and EPILOGUES.create(spec.name).uses_residual
        ):
            continue
        cols = owned[i] | _read(formats[i + 1], drops[i + 1])
        if not cols.all():
            keep[i] = np.flatnonzero(cols)
    # pass 2: build each tile once
    return [
        (
            _rebuild(tw, drops[i], consts[i], keep[i - 1] if i else None, keep[i]),
            _slice_epilogue(spec, keep[i]),
        )
        for i, (tw, spec) in enumerate(zip(formats, epilogues))
    ]


def _owned(tw: TiledTWMatrix) -> np.ndarray:
    """``bool[N]``: the output columns some tile of ``tw`` owns."""
    owned = np.zeros(tw.shape[1], dtype=bool)
    for t in tw.tiles:
        owned[t.col_indices] = True
    return owned


def _output_liveness(
    tw: TiledTWMatrix, spec: EpilogueSpec | None, owned: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``(live, const)`` of the input the next layer reads from ``tw``.

    ``live`` is ``None`` when every column may be nonzero; ``const``
    holds each dead column's value when it is not zero.
    """
    if spec is None:
        return owned, None
    if not EPILOGUES.create(spec.name).elementwise:
        return None, None
    zeros = np.zeros((1, tw.shape[1]), dtype=activation_dtype(tw.dtype))
    const = apply_epilogue(zeros, spec)[0]
    return owned | ~np.isfinite(const), const


def _drops(tw: TiledTWMatrix, live: np.ndarray) -> _Drops:
    """Per tile, its kept rows and which of them read a column not ``live``.

    A row whose payload is not finite is never dropped.
    """
    out = []
    for t in tw.tiles:
        rows = t.row_indices()
        drop = ~live[rows]
        if drop.any() and t.data.dtype.kind == "f":
            drop &= np.isfinite(t.data).all(axis=1)
        out.append((rows, drop))
    return out


def _read(tw: TiledTWMatrix, drops: _Drops) -> np.ndarray:
    """``bool[K]``: the input columns some tile of ``tw`` still reads."""
    read = np.zeros(tw.shape[0], dtype=bool)
    for rows, drop in drops:
        read[rows[~drop]] = True
    return read


def _rebuild(
    tw: TiledTWMatrix,
    drops: _Drops | None,
    const: np.ndarray | None,
    keep_k: np.ndarray | None,
    keep_n: np.ndarray | None,
) -> TiledTWMatrix:
    """``tw`` without its dropped rows, re-indexed to ``keep_k × keep_n``.

    ``const`` (``float[K]``, optional) is the value every dead input
    column holds; the dropped rows' products with it are folded into
    ``out_bias``.  Without it the dead inputs are zeros.  ``None`` for
    ``drops``, ``keep_k`` or ``keep_n`` means nothing dropped, every row
    kept, every column kept.
    """
    compute = activation_dtype(tw.dtype)
    bias = None
    if const is not None:
        const = np.asarray(const, dtype=np.float64)
        bias = np.zeros(tw.shape[1])
    tiles = []
    for i, t in enumerate(tw.tiles):
        mask_k, data = t.mask_k, t.data
        if drops is not None:
            rows, drop = drops[i]
            if drop.any():
                if bias is not None:
                    # the values the untightened GEMM multiplies
                    w = t.values(compute)[drop]
                    bias[t.col_indices] += const[rows[drop]] @ w.astype(np.float64)
                mask_k = mask_k.copy()
                mask_k[rows[drop]] = False
                data = data[~drop]
        if keep_k is not None:
            mask_k = mask_k[keep_k]
        cols = t.col_indices
        if keep_n is not None:
            cols = np.searchsorted(keep_n, cols)
        if mask_k is t.mask_k and cols is t.col_indices:
            tiles.append(t)
        else:
            tiles.append(TWTile(cols, mask_k, data, t.scale))
    out_bias = None
    if bias is not None and bias.any():
        out_bias = (bias if keep_n is None else bias[keep_n]).astype(compute)
    elif keep_k is None and keep_n is None and all(
        a is b for a, b in zip(tiles, tw.tiles)
    ):
        return tw
    shape = (
        tw.shape[0] if keep_k is None else keep_k.size,
        tw.shape[1] if keep_n is None else keep_n.size,
    )
    return TiledTWMatrix(shape, tw.granularity, tuple(tiles), out_bias=out_bias)


def _slice_epilogue(
    spec: EpilogueSpec | None, keep: np.ndarray | None
) -> EpilogueSpec | None:
    """``spec`` with its parameter vectors restricted to the ``keep`` columns.

    ``bias_gelu`` reads only ``bias``, but a spec resolved from a bare
    name also carries neutral ``gamma``/``beta``, and every vector of a
    spec is sized to the layer's ``N``.
    """
    if spec is None or keep is None:
        return spec
    sliced = {
        name: np.asarray(vec)[keep]
        for name in ("bias", "gamma", "beta")
        if (vec := getattr(spec, name)) is not None
    }
    return dataclasses.replace(spec, **sliced)
