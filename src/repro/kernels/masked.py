"""TW masked GEMM — the functional analogue of the paper's Listing 1.

The paper's ``StreamMaskedGEMM`` kernel computes one output tile per thread
block, loading only the rows of ``A`` that survive the tile's ``mask_k``
(``Load_A_Tile_with_Mask``) and scattering results through ``mask_n``
(``Store_C_Tile_with_Mask``).  The functional equivalents here:

- :func:`masked_gemm` — one tile: dense ``A`` panel × compact ``B`` panel
  under explicit ``mask_k`` / column-index vectors;
- :func:`tw_gemm` — the whole product ``A @ W`` for a
  :class:`~repro.formats.tiled.TiledTWMatrix`, one gather GEMM per tile;
- :func:`tw_gemm_work` — the executed and useful multiply-adds of that
  execution;
- :func:`tw_gemm_reference` — the one-kernel-per-tile loop (the "Normal
  GEMM" row of Fig. 7), kept verbatim as the scalar oracle under the
  vectorisation contract.

All are tested equivalent to dense GEMM against the mask-expanded weights,
which is the core correctness claim of the TW execution scheme: *pruned
rows/columns contribute exactly zero, so skipping them changes nothing*.

Execution
---------
``tw_gemm`` walks ``weight.tiles`` in index order.  Each tile writes only
its own output columns (``Store_C_Tile_with_Mask``), so the order tiles
run in cannot change an output bit.  The batching and stream plan of
Fig. 7 steps 3–4 is a GPU launch schedule that nothing here runs:
:func:`~repro.gpu.tw_kernel.tw_gemm_cost` prices it by grouping the tiles
by width itself, and
:func:`~repro.runtime.scheduler.build_execution_plan` only describes it.

Every tile runs as one *gather GEMM*, the NumPy analogue of
``Load_A_Tile_with_Mask``:

1. the activations are transposed once per call into a ``(K + 1) × M``
   panel whose last row is zero, so each tile's ``A`` rows are contiguous;
2. each tile gathers the rows its ``mask_k`` keeps;
3. one ``(kept_n × depth) @ (depth × M)`` product is stored into the
   tile's rows of an ``N × M`` output (``Store_C_Tile_with_Mask``), which
   is returned as its ``M × N`` transpose view; a chained layer's
   transpose in step 1 is then a plain copy.

A tile loads only the ``A`` rows it keeps, so a layer executes its useful
multiply-adds plus at most ``DEPTH_QUANTUM - 1`` padding rows per tile
(:func:`tw_gemm_work`), never the full ``K`` depth.  The depth is padded to
a multiple of :data:`DEPTH_QUANTUM` because OpenBLAS rounds float32 GEMMs
whose depth is not a multiple of 32 differently under 1 and 2 threads;
padded, a float32 result is the same whatever BLAS thread count the
process runs with, so it reproduces across hosts and
``OPENBLAS_NUM_THREADS`` settings.  Executors do not rely on it: ``inline``
and ``threaded`` share one process and one thread count, and match
bit-for-bit unpadded too.  Padding rows gather the zero row against
zero weight rows: they add exact zeros and never read an activation, so a
NaN or Inf in a row that every tile prunes cannot reach the output, and
non-finite values in kept rows propagate as in :func:`tw_gemm_reference`.

The format ``tw_gemm`` runs need not be the pruned one.  A compiled model
executes the format the liveness stage derives
(:func:`~repro.kernels.liveness.tighten_chain`): there a tile's ``mask_k``
may be tighter than its pruning mask, because the rows that read a column
the previous layer never writes are dropped.  When those columns held a
constant (after an elementwise epilogue such as ``bias_gelu``), their
products are folded into the format's ``out_bias``, which ``tw_gemm`` adds
to every output row after the tile products, in the compute dtype.  A
tile left with no rows then outputs only its bias, and a column no tile
owns stays an exact zero.  The stage also moves the format into live
coordinates: its ``K`` and ``N`` may be only the columns the chain can
see, so ``tw_gemm`` neither gathers, zero-fills nor stores a dead column.

Each tile's compute operand (its padded gather indices and its weight
panel in the compute dtype) is memoised on the weight per compute dtype
(:func:`tile_operands`).  Weights are frozen, so payloads never change
under a live memo.  fp16 is upcast once and int8 is dequantised once, so a
serving loop pays only the gathers and GEMMs.

Mixed precision
---------------
``tw_gemm`` follows the storage dtype of the compacted weight:

- **float64 / float32** — operands multiply in their own dtype (the
  historical behaviour; float32 runs BLAS sgemm directly).
- **float16** — storage (checkpoint, pickle) stays
  half precision; the GEMM *accumulates in float32* via an explicit
  upcast (host BLAS has no half kernels) and the output rounds back to
  float16 once.  The fp32 compute operands are memoised, so a serving loop
  upcasts each tile exactly once.
- **int8** — tile payloads are symmetric per-tile quantised
  (``q = round(w / scale)``, ``scale`` on each :class:`TWTile`); the GEMM
  dequantises each tile into a memoised fp32 operand and accumulates in
  float32.  Activations stay floating point throughout.

Oracle-comparison policy (vectorisation contract): ``tw_gemm_reference``
is the float-payload oracle and hardcodes a ``float64`` output promotion;
comparisons run in the *batched path's* dtype against the reference output
cast to that dtype, with the per-dtype tolerances in
:data:`DTYPE_TOLERANCES` — exact (``atol = rtol = 0``) for float64 on
dyadic data, documented rounding bounds for float32/float16.  The int8
path has no scalar oracle: it is compared against the float64 ``tw_gemm``
on the dequantised weights (``TiledTWMatrix.to_dense()``) within the
quantisation-error bound implied by the tile scales.
"""

from __future__ import annotations

import numpy as np

from repro.formats.tiled import TiledTWMatrix

__all__ = [
    "activation_dtype",
    "masked_gemm",
    "tw_gemm",
    "tw_gemm_reference",
    "tw_gemm_work",
    "DEPTH_QUANTUM",
    "DTYPE_TOLERANCES",
]

#: per-tile GEMM depths are zero-padded to a multiple of this: OpenBLAS
#: rounds float32 GEMMs of other depths differently under 1 and 2 threads,
#: and padding keeps results independent of the process's BLAS thread count
DEPTH_QUANTUM = 32

#: per-dtype tolerance table for batched-vs-oracle comparisons (the
#: explicit oracle policy): compare in the batched path's dtype, reference
#: output cast to it.  float64 on dyadic data is exact; float64 on
#: continuous data differs only by summation-order rounding; float32 /
#: float16 bounds follow ``K_max · eps`` for BERT-scale reductions
#: (K ≤ 4096: 4096 · 1.2e-7 ≈ 5e-4 relative for fp32, and half-precision
#: storage rounding ~ 1e-3 relative dominates for fp16).
DTYPE_TOLERANCES: dict[str, dict[str, float]] = {
    "float64": {"rtol": 0.0, "atol": 1e-12},
    "float32": {"rtol": 5e-4, "atol": 1e-5},
    "float16": {"rtol": 1e-2, "atol": 1e-3},
}


def masked_gemm(
    a: np.ndarray,
    b_compact: np.ndarray,
    mask_k: np.ndarray,
    col_indices: np.ndarray,
    out: np.ndarray,
) -> None:
    """Accumulate one TW tile's contribution into ``out`` (Listing 1 body).

    Parameters
    ----------
    a:
        Dense activations ``M×K`` (kept in dense layout; pruned rows are
        *skipped*, not removed — paper §VI "Tiling").
    b_compact:
        The tile's compact payload ``kept_k × kept_n``.
    mask_k:
        ``bool[K]`` row survival mask (the kernel's ``mask_k``).
    col_indices:
        Original output columns of the tile (the kernel's ``mask_n``,
        resolved to indices).
    out:
        Dense output ``M×N`` accumulated in place.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    mask_k = np.asarray(mask_k, dtype=bool)
    if mask_k.shape != (a.shape[1],):
        raise ValueError(f"mask_k length {mask_k.shape[0]} != K={a.shape[1]}")
    rows = np.flatnonzero(mask_k)
    if b_compact.shape != (rows.size, np.asarray(col_indices).size):
        raise ValueError(
            f"compact tile shape {b_compact.shape} != "
            f"({rows.size}, {np.asarray(col_indices).size})"
        )
    if rows.size == 0 or np.asarray(col_indices).size == 0:
        return
    # Load_A_Tile_with_Mask: gather the surviving rows of A's K dimension
    a_panel = a[:, rows]
    # WMMA main loop: one dense (M × kept_k) @ (kept_k × kept_n) product
    contrib = a_panel @ b_compact
    # Store_C_Tile_with_Mask: scatter into the tile's output columns
    out[:, np.asarray(col_indices)] += contrib


def tw_gemm_reference(a: np.ndarray, weight: TiledTWMatrix) -> np.ndarray:
    """One :func:`masked_gemm` per tile — the scalar oracle for ``tw_gemm``.

    This is the seed implementation kept verbatim (vectorisation contract):
    it must never be optimised.  Note it promotes the output to ``float64``
    regardless of the operand dtypes; the batched path respects them (see
    ``DTYPE_TOLERANCES`` for the comparison policy).  Defined for *float*
    payloads only — quantised int8 weights have no scalar oracle and are
    checked against the float64 path on the dequantised weights instead.
    A format's ``out_bias`` is part of its product and is added last.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    k, n = weight.shape
    if a.shape[1] != k:
        raise ValueError(f"A columns {a.shape[1]} != weight K {k}")
    out = np.zeros((a.shape[0], n), dtype=np.result_type(a, np.float64))
    for tile in weight.tiles:
        masked_gemm(a, tile.data, tile.mask_k, tile.col_indices, out)
    if weight.out_bias is not None:
        out += weight.out_bias
    return out


def tw_gemm(a: np.ndarray, weight: TiledTWMatrix) -> np.ndarray:
    """Compute ``A @ W`` for a TW-compacted weight matrix, one gather GEMM per tile.

    Columns of the output that belong to no tile (pruned columns) are exact
    zeros, matching dense GEMM against the mask-expanded weights.  A
    format carrying an ``out_bias`` (an execution format from the liveness
    stage) adds it to every output row.

    Parameters
    ----------
    a:
        Dense activations ``M×K``.
    weight:
        The TW-compacted weight.

    Notes
    -----
    Matches :func:`tw_gemm_reference` bit-identically on exactly-
    representable data; on continuous data the zero-padded per-tile
    reduction only differs by summation-order rounding.  The output dtype
    follows ``np.result_type(a, weight payload)`` instead of the
    reference's unconditional ``float64`` promotion, so float32 serving
    does not double its memory traffic.  float16 weights accumulate in
    float32 and round the output back to float16; int8 weights dequantise
    per tile scale into float32 and return the float result-type of the
    activations (never int).  The result is the ``M×N`` transpose view of
    an ``N×M`` buffer (Fortran order); its values do not depend on the
    memory order of ``a``.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    k, n = weight.shape
    if a.shape[1] != k:
        raise ValueError(f"A columns {a.shape[1]} != weight K {k}")
    compute_dtype, out_dtype = gemm_dtypes(a.dtype, weight.dtype)
    m = a.shape[0]
    if not weight.tiles:
        return np.zeros((m, n), dtype=out_dtype)
    operands = tile_operands(weight, compute_dtype)
    # one transpose (and upcast) per call: every tile then gathers whole
    # contiguous rows, and padded depths gather the trailing zero row.  A
    # chained layer's input is the previous layer's transposed view, so
    # its transpose is a plain copy.
    at = np.empty((k + 1, m), dtype=compute_dtype)
    at[:k] = a.T
    at[k] = 0
    # the output is built transposed too: each tile stores whole rows
    out_t = np.zeros((n, m), dtype=compute_dtype)
    for tile, operand in zip(weight.tiles, operands):
        if operand is None:
            continue
        rows, panel = operand
        # every output column belongs to exactly one tile
        out_t[tile.col_indices] = panel.T @ at.take(rows, axis=0)
    if weight.out_bias is not None:
        out_t += weight.out_bias[:, None]
    out = out_t.T
    return out if compute_dtype == out_dtype else out.astype(out_dtype)


def tw_gemm_work(weight: TiledTWMatrix) -> tuple[int, int]:
    """Executed and useful multiply-adds per activation row of :func:`tw_gemm`.

    Counts the format it is given: a compiled layer executes
    ``CompiledLayer.tw``, the format the liveness stage tightened.  Moving
    that format into live coordinates re-indexes rows and columns but
    keeps every tile's ``kept_k`` and ``kept_n``, so it does not change
    these counts.

    A tile executes its padded depth times ``kept_n`` and needs only
    ``kept_k × kept_n``, so ``executed / useful`` is at most
    ``⌈kept_k / DEPTH_QUANTUM⌉ · DEPTH_QUANTUM / kept_k`` per tile.  Both
    counts scale with ``m`` alike.
    """
    executed = useful = 0
    for t in weight.tiles:
        if t.kept_k and t.kept_n:
            executed += _padded_depth(t.kept_k) * t.kept_n
            useful += t.kept_k * t.kept_n
    return executed, useful


def gemm_dtypes(a_dtype: np.dtype, w_dtype: np.dtype) -> tuple[np.dtype, np.dtype]:
    """``(compute dtype, output dtype)`` of ``tw_gemm`` for these operand dtypes.

    Quantised storage accumulates in fp32 and keeps float activations; host
    BLAS has no half kernels, so fp16 products accumulate in fp32 too.
    """
    if np.dtype(w_dtype).kind in "iu":
        out_dtype = np.result_type(a_dtype, np.float32)
    else:
        out_dtype = np.result_type(a_dtype, w_dtype)
    compute = np.dtype(np.float32) if out_dtype == np.float16 else np.dtype(out_dtype)
    return compute, np.dtype(out_dtype)


def activation_dtype(w_dtype: np.dtype) -> np.dtype:
    """The dtype activations run in against weights stored as ``w_dtype``.

    Quantised (int8) storage keeps float32 activations (weights-only
    quantisation); float storage runs activations in its own dtype.
    """
    w_dtype = np.dtype(w_dtype)
    return np.dtype(np.float32) if w_dtype.kind in "iu" else w_dtype


def tile_operands(weight: TiledTWMatrix, dtype) -> list:
    """The weight's per-tile compute operands for one compute dtype.

    One entry per tile of ``weight.tiles``: ``(gather rows, weight
    panel)``, or ``None`` for a tile with nothing to compute.  Built on
    the first call per dtype and memoised on the weight; the frozen
    dataclass carries the memo in its instance ``__dict__``.
    """
    dtype = np.dtype(dtype)
    memo = weight.__dict__.get("_tile_operands")
    if memo is None:
        memo = {}
        object.__setattr__(weight, "_tile_operands", memo)
    operands = memo.get(dtype.str)
    if operands is None:
        operands = memo[dtype.str] = [_tile_operand(weight, t, dtype) for t in weight.tiles]
    return operands


def _tile_operand(
    weight: TiledTWMatrix, tile, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray] | None:
    """Build one tile's gather indices and compute-dtype weight panel.

    Both are zero-padded to the tile's padded depth: the extra indices
    point at the zero row ``K`` of ``tw_gemm``'s transposed activations and
    meet zero weight rows.  int8 payloads dequantise by the tile's scale.
    """
    if not (tile.kept_k and tile.kept_n):
        return None
    depth = _padded_depth(tile.kept_k)
    rows = np.full(depth, weight.shape[0], dtype=np.intp)
    rows[: tile.kept_k] = tile.row_indices()
    panel = np.zeros((depth, tile.kept_n), dtype=dtype)
    panel[: tile.kept_k] = tile.data
    if tile.data.dtype.kind in "iu":
        panel[: tile.kept_k] *= np.asarray(tile.scale, dtype=dtype)
    return rows, panel


def _padded_depth(kept_k: int) -> int:
    return -(-kept_k // DEPTH_QUANTUM) * DEPTH_QUANTUM
