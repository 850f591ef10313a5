"""TW masked GEMM — the functional analogue of the paper's Listing 1.

The paper's ``StreamMaskedGEMM`` kernel computes one output tile per thread
block, loading only the rows of ``A`` that survive the tile's ``mask_k``
(``Load_A_Tile_with_Mask``) and scattering results through ``mask_n``
(``Store_C_Tile_with_Mask``).  The functional equivalents here:

- :func:`masked_gemm` — one tile: dense ``A`` panel × compact ``B`` panel
  under explicit ``mask_k`` / column-index vectors;
- :func:`tw_gemm` — the whole product ``A @ W`` for a
  :class:`~repro.formats.tiled.TiledTWMatrix`, one gather GEMM per tile
  in the order of the paper's pipeline
  (plan → batch → stream → execute, Fig. 7 steps 3–4);
- :func:`tw_gemm_work` — the executed and useful multiply-adds of that
  execution;
- :func:`tw_gemm_reference` — the one-kernel-per-tile loop (the "Normal
  GEMM" row of Fig. 7), kept verbatim as the scalar oracle under the
  vectorisation contract.

All are tested equivalent to dense GEMM against the mask-expanded weights,
which is the core correctness claim of the TW execution scheme: *pruned
rows/columns contribute exactly zero, so skipping them changes nothing*.

Execution pipeline
------------------
``tw_gemm`` consumes the same :class:`~repro.runtime.batching.BatchGroup`
plan the cost model prices and walks its groups in stream issue order.
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

Each tile's compute operand (its padded gather indices and its weight
panel in the compute dtype) is memoised on the weight per compute dtype.
Weights are frozen, so payloads never change under a live memo.  fp16 is
upcast once and int8 is dequantised once, and a serving loop that replays
a cached :class:`~repro.runtime.scheduler.ExecutionPlan` pays only the
gathers and GEMMs.  Pass ``plan=StreamAssignment.execution_order()`` (or an
``ExecutionPlan``) to execute groups in the scheduler's per-stream issue
order.

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
    return out


def tw_gemm(a: np.ndarray, weight: TiledTWMatrix, plan=None) -> np.ndarray:
    """Compute ``A @ W`` for a TW-compacted weight matrix, one gather GEMM per tile.

    Columns of the output that belong to no tile (pruned columns) are exact
    zeros, matching dense GEMM against the mask-expanded weights.

    Parameters
    ----------
    a:
        Dense activations ``M×K``.
    weight:
        The TW-compacted weight.
    plan:
        Batch groups to execute, in order — a sequence of
        :class:`~repro.runtime.batching.BatchGroup` or an
        :class:`~repro.runtime.scheduler.ExecutionPlan` (executed in its
        stream issue order).  Defaults to
        :func:`~repro.runtime.batching.batching_plan` over ``weight``.
        ``tile_ids`` index into ``weight.tiles``.

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
    tiles = weight.tiles
    if not tiles:
        return np.zeros((m, n), dtype=out_dtype)
    groups = _resolve_plan(weight, plan)
    operands = tile_operands(
        weight, compute_dtype, [tid for group in groups for tid in group.tile_ids]
    )
    # one transpose (and upcast) per call: every tile then gathers whole
    # contiguous rows, and padded depths gather the trailing zero row.  A
    # chained layer's input is the previous layer's transposed view, so
    # its transpose is a plain copy.
    at = np.empty((k + 1, m), dtype=compute_dtype)
    at[:k] = a.T
    at[k] = 0
    # the output is built transposed too: each tile stores whole rows
    out_t = np.zeros((n, m), dtype=compute_dtype)
    for group in groups:
        for tid in group.tile_ids:
            operand = operands[tid]
            if operand is None:
                continue
            rows, panel = operand
            # every output column belongs to exactly one tile
            out_t[tiles[tid].col_indices] = panel.T @ at.take(rows, axis=0)
    out = out_t.T
    return out if compute_dtype == out_dtype else out.astype(out_dtype)


def tw_gemm_work(weight: TiledTWMatrix, plan=None) -> tuple[int, int]:
    """Executed and useful multiply-adds per activation row of :func:`tw_gemm`.

    A tile executes its padded depth times ``kept_n`` and needs only
    ``kept_k × kept_n``, so ``executed / useful`` is at most
    ``⌈kept_k / DEPTH_QUANTUM⌉ · DEPTH_QUANTUM / kept_k`` per tile.  Both
    counts scale with ``m`` alike; ``plan`` is resolved as in ``tw_gemm``.
    """
    executed = useful = 0
    for group in _resolve_plan(weight, plan):
        for tid in group.tile_ids:
            t = weight.tiles[tid]
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


def tile_operands(weight: TiledTWMatrix, dtype, tile_ids=()) -> dict:
    """The weight's per-tile operand memo for one compute dtype.

    Maps tile id to ``(gather rows, weight panel)``, or ``None`` for a tile
    with nothing to compute; the entries of ``tile_ids`` are built if
    missing.  The frozen dataclass carries the memo in its
    instance ``__dict__``.
    """
    dtype = np.dtype(dtype)
    memo = weight.__dict__.get("_tile_operands")
    if memo is None:
        memo = {}
        object.__setattr__(weight, "_tile_operands", memo)
    operands = memo.setdefault(dtype.str, {})
    for tid in tile_ids:
        if tid not in operands:
            operands[tid] = _tile_operand(weight, tid, dtype)
    return operands


def _tile_operand(
    weight: TiledTWMatrix, tid: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray] | None:
    """Build one tile's gather indices and compute-dtype weight panel.

    Both are zero-padded to the tile's padded depth: the extra indices
    point at the zero row ``K`` of ``tw_gemm``'s transposed activations and
    meet zero weight rows.  int8 payloads dequantise by the tile's scale.
    """
    tile = weight.tiles[tid]
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


def _resolve_plan(weight: TiledTWMatrix, plan):
    """The batch groups ``tw_gemm`` walks, in order (see its ``plan``)."""
    if plan is None:
        plan = weight.__dict__.get("_default_plan")
        if plan is None:
            # deferred import: repro.runtime imports this module for the server
            from repro.runtime.batching import batching_plan

            plan = batching_plan(weight)
            object.__setattr__(weight, "_default_plan", plan)
    elif hasattr(plan, "execution_order"):
        plan = plan.execution_order()
    return plan
