"""Tile-wise (TW) compact matrix layout.

This is the paper's own execution format (Fig. 4 step 4, Fig. 7): the weight
matrix ``B (K×N)`` is split into column tiles ("B-tiles").  Column pruning
removes whole columns; the surviving columns are then *re-organised* into
tiles of ``G`` surviving columns each (paper §IV-A "Pruning Order"), and row
pruning assigns every tile its own row mask ``mask_k``.

Each :class:`TWTile` therefore stores

- ``col_indices`` — the original column indices this tile owns (all of them
  survivors of column pruning; a column appearing in no tile was pruned),
- ``mask_k``      — ``bool[K]``, True for rows kept by this tile's row pruning,
- ``data``        — the compact dense ``kept_k × kept_n`` payload,
- ``scale``       — the symmetric quantisation scale (int8 payloads store
  ``round(w / scale)``; float payloads keep the neutral ``1.0``).

Because every tile is dense after compaction, the sparse product collapses to
a set of *smaller dense GEMMs*, which is the property that lets TW run on
unmodified tensor cores.  Tiles with equal widths can be batched into a
single kernel (Fig. 7 step 3) — :meth:`TiledTWMatrix.width_groups` exposes
the batching key.

Both tiling disciplines in the paper are representable:

- *reorganised* tiling (the paper's default): tiles own ``G`` consecutive
  survivors, so all but the last tile have equal width;
- *fixed-boundary* tiling (Fig. 4 step 2's pruning view, kept as an
  ablation): tiles own the survivors of each original ``G``-wide panel, so
  widths vary per tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TWTile", "TiledTWMatrix"]


@dataclass(frozen=True)
class TWTile:
    """One compacted column tile of a TW matrix.

    Attributes
    ----------
    col_indices:
        ``int64[kept_n]`` strictly increasing original column indices.
    mask_k:
        ``bool[K]`` — True for rows kept by row pruning in this tile.
    data:
        ``float[kept_k, kept_n]`` compact dense payload,
        ``data[a, b] = B[rows_kept[a], col_indices[b]]`` — ``float64`` by
        default, ``float32``/``float16`` when the serving path compacts at
        reduced precision, ``int8`` when quantised (see ``scale``).
    scale:
        Symmetric per-tile quantisation scale: logical values are
        ``data * scale``.  ``1.0`` (neutral) for float payloads; for int8
        payloads ``scale = max|w| / 127`` over the tile's kept elements.
    """

    col_indices: np.ndarray
    mask_k: np.ndarray
    data: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.col_indices.ndim != 1:
            raise ValueError("col_indices must be 1-D")
        if self.col_indices.size > 1 and np.any(np.diff(self.col_indices) <= 0):
            raise ValueError("col_indices must be strictly increasing")
        expect = (int(self.mask_k.sum()), int(self.col_indices.size))
        if self.data.shape != expect:
            raise ValueError(f"tile data shape {self.data.shape} != masks imply {expect}")
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"tile scale must be positive and finite, got {self.scale}")

    @property
    def kept_k(self) -> int:
        """Rows surviving row pruning — the tile's effective reduction depth."""
        return int(self.mask_k.sum())

    @property
    def kept_n(self) -> int:
        """Columns owned by the tile — its effective width."""
        return int(self.col_indices.size)

    @property
    def work(self) -> int:
        """Multiply-add count contributed per output row (``kept_k · kept_n``)."""
        return self.kept_k * self.kept_n

    def row_indices(self) -> np.ndarray:
        """Original row indices kept by this tile (``int64[kept_k]``)."""
        return np.flatnonzero(self.mask_k)


@dataclass(frozen=True)
class TiledTWMatrix:
    """A ``K×N`` matrix stored as TW column tiles.

    Attributes
    ----------
    shape:
        Logical dense shape ``(K, N)``.  An execution format derived by
        :func:`~repro.kernels.liveness.tighten_chain` may be in *live
        coordinates*: its ``K`` and ``N`` count only the columns the
        layer chain can see, and ``mask_k``/``col_indices`` index those.
    granularity:
        Tile width ``G`` (the paper's tunable hyper-parameter).
    tiles:
        Column tiles; together they own every *surviving* column exactly once.
    out_bias:
        Optional ``float[N]`` added to every output row after the tile
        products (``A @ W + out_bias``).  Only execution formats derived by
        :func:`~repro.kernels.liveness.tighten_chain` carry one: it holds
        the folded contribution of rows whose constant input was dropped.
        It is zero in every column no tile owns, so pruned output columns
        stay exact zeros.
    """

    shape: tuple[int, int]
    granularity: int
    tiles: tuple[TWTile, ...] = field(default_factory=tuple)
    out_bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_masks(
        cls,
        dense: np.ndarray,
        granularity: int,
        col_keep: np.ndarray,
        row_masks: list[np.ndarray],
        *,
        reorganize: bool = True,
        dtype: np.dtype | type | None = np.float64,
    ) -> "TiledTWMatrix":
        """Compact ``dense`` under a column keep-mask and per-tile row masks.

        Parameters
        ----------
        dense:
            The ``K×N`` weight matrix (values in pruned positions ignored).
        granularity:
            Tile width ``G``.
        col_keep:
            ``bool[N]`` — columns surviving column pruning.
        row_masks:
            One ``bool[K]`` per tile, in tile order.  The number of tiles is
            ``ceil(n_surviving / G)`` when ``reorganize`` else ``ceil(N / G)``.
        reorganize:
            If True (paper default), group *surviving* columns ``G`` at a
            time; otherwise keep the original fixed panel boundaries.
        dtype:
            Payload dtype of the compact tiles (``float64`` default, the
            historical behaviour).  ``None`` keeps ``dense``'s own dtype so
            float32 weights compact — and later serve — without promotion.
            ``int8`` quantises each tile symmetrically against its own
            ``max|w| / 127`` scale (per-tile scales, fp32 dequantisation at
            execution time — the mixed-precision serving path).
        """
        quantize = dtype is not None and np.dtype(dtype).kind in "iu"
        if quantize and np.dtype(dtype) != np.dtype(np.int8):
            raise ValueError(
                f"only int8 quantisation is supported, got {np.dtype(dtype)}"
            )
        # quantisation must see the float values — casting first would
        # truncate them to integers before the scale is even computed
        dense = np.asarray(dense) if quantize else np.asarray(dense, dtype=dtype)
        if dense.ndim != 2:
            raise ValueError(f"expected 2-D array, got ndim={dense.ndim}")
        k, n = dense.shape
        col_keep = np.asarray(col_keep, dtype=bool)
        if col_keep.shape != (n,):
            raise ValueError(f"col_keep length {col_keep.shape[0]} != N={n}")
        groups = cls.column_groups(col_keep, granularity, reorganize=reorganize)
        if len(row_masks) != len(groups):
            raise ValueError(f"expected {len(groups)} row masks, got {len(row_masks)}")
        tiles = []
        for cols, mk in zip(groups, row_masks):
            mk = np.asarray(mk, dtype=bool)
            if mk.shape != (k,):
                raise ValueError(f"row mask length {mk.shape[0]} != K={k}")
            rows = np.flatnonzero(mk)
            if rows.size and cols.size:
                # two-step gather: the row gather copies contiguous rows,
                # leaving only a small per-row column gather (much faster
                # than one np.ix_ fancy index at model scale)
                data = dense[rows][:, cols]
            else:
                data = np.zeros((rows.size, cols.size), dtype=dense.dtype)
            scale = 1.0
            if quantize:
                amax = float(np.max(np.abs(data))) if data.size else 0.0
                scale = amax / 127.0 if amax > 0.0 else 1.0
                data = np.clip(np.rint(data / scale), -127, 127).astype(np.int8)
            tiles.append(
                TWTile(
                    cols.astype(np.int64), mk, np.ascontiguousarray(data), scale
                )
            )
        return cls(shape=(k, n), granularity=granularity, tiles=tuple(tiles))

    @staticmethod
    def column_groups(
        col_keep: np.ndarray, granularity: int, *, reorganize: bool = True
    ) -> list[np.ndarray]:
        """Group surviving column indices into tiles.

        With ``reorganize`` (paper §IV-A), consecutive survivors are grouped
        ``G`` at a time so all tiles but possibly the last have equal width —
        the precondition for batched execution.  Without it, the original
        ``G``-wide panel boundaries are kept and tiles have ragged widths.
        Empty groups (fully-pruned panels) are dropped.
        """
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        col_keep = np.asarray(col_keep, dtype=bool)
        survivors = np.flatnonzero(col_keep)
        if survivors.size == 0:
            return []
        if reorganize:
            cuts = np.arange(granularity, survivors.size, granularity)
        else:
            # one binary search per panel boundary instead of a boolean
            # scan of all survivors per panel
            n = col_keep.shape[0]
            cuts = np.searchsorted(survivors, np.arange(granularity, n, granularity))
        groups = np.split(survivors, cuts)
        return [g for g in groups if g.size]

    # ------------------------------------------------------------------ #
    # validation & properties
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on overlapping tiles or bad indices."""
        k, n = self.shape
        if self.granularity <= 0:
            raise ValueError(f"granularity must be positive, got {self.granularity}")
        seen = np.zeros(n, dtype=bool)
        for i, t in enumerate(self.tiles):
            if t.mask_k.shape != (k,):
                raise ValueError(f"tile {i}: mask_k length != K={k}")
            if t.kept_n > self.granularity:
                raise ValueError(
                    f"tile {i}: width {t.kept_n} exceeds granularity {self.granularity}"
                )
            if t.col_indices.size and (
                t.col_indices.min() < 0 or t.col_indices.max() >= n
            ):
                raise ValueError(f"tile {i}: column index out of range")
            if np.any(seen[t.col_indices]):
                raise ValueError(f"tile {i}: column owned by more than one tile")
            seen[t.col_indices] = True
        if self.out_bias is not None:
            if self.out_bias.shape != (n,):
                raise ValueError(f"out_bias shape {self.out_bias.shape} != ({n},)")
            if np.any(self.out_bias[~seen]):
                raise ValueError("out_bias is nonzero in a column no tile owns")

    @property
    def n_tiles(self) -> int:
        """Number of column tiles."""
        return len(self.tiles)

    @property
    def dtype(self) -> np.dtype:
        """Payload dtype of the compact tiles (``float64`` when empty)."""
        return self.tiles[0].data.dtype if self.tiles else np.dtype(np.float64)

    @property
    def quantized(self) -> bool:
        """True when the payloads are integer-quantised (int8 + scales)."""
        return self.dtype.kind in "iu"

    @property
    def kept_columns(self) -> int:
        """Total surviving columns across tiles."""
        return sum(t.kept_n for t in self.tiles)

    @property
    def sparsity(self) -> float:
        """Element-level sparsity implied by the tile masks."""
        total = self.shape[0] * self.shape[1]
        kept = sum(t.work for t in self.tiles)
        return 1.0 - kept / total if total else 0.0

    @property
    def flops_fraction(self) -> float:
        """Fraction of the dense GEMM's multiply-adds still required."""
        return 1.0 - self.sparsity

    def kept_widths(self) -> np.ndarray:
        """Per-tile widths ``N_i`` — the batching key (Fig. 4 step 4)."""
        return np.array([t.kept_n for t in self.tiles], dtype=np.int64)

    def kept_depths(self) -> np.ndarray:
        """Per-tile reduction depths ``K_i``."""
        return np.array([t.kept_k for t in self.tiles], dtype=np.int64)

    def width_groups(self) -> dict[int, list[int]]:
        """Tile indices grouped by width — each group batches into one kernel."""
        groups: dict[int, list[int]] = {}
        for i, t in enumerate(self.tiles):
            groups.setdefault(t.kept_n, []).append(i)
        return groups

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-tile multiply-add counts (1.0 = balanced)."""
        work = np.array([t.work for t in self.tiles], dtype=np.float64)
        if work.size == 0:
            return 1.0
        mean = work.mean()
        return float(work.max() / mean) if mean > 0 else 1.0

    def to_dense(self) -> np.ndarray:
        """Expand back to the logical dense ``K×N`` array (zeros where pruned).

        Quantised payloads dequantise through their per-tile scales, so the
        result always holds *logical* float values (fp32 for int8 storage).
        """
        out_dtype = np.dtype(np.float32) if self.quantized else self.dtype
        out = np.zeros(self.shape, dtype=out_dtype)
        for t in self.tiles:
            rows = t.row_indices()
            if rows.size and t.col_indices.size:
                payload = t.data
                if self.quantized:
                    payload = payload.astype(np.float32) * np.float32(t.scale)
                out[np.ix_(rows, t.col_indices)] = payload
        return out

    def element_mask(self) -> np.ndarray:
        """Full ``bool[K, N]`` keep-mask implied by the tile masks."""
        out = np.zeros(self.shape, dtype=bool)
        for t in self.tiles:
            out[np.ix_(np.flatnonzero(t.mask_k), t.col_indices)] = True
        return out

    def memory_bytes(self, dtype_bytes: int = 2, mask_bytes: int = 4) -> int:
        """Storage footprint: compact payloads + int32 masks (paper Fig. 11).

        The paper stores masks in int32 (one word per row/column flag), which
        is the source of the 2× load-transaction overhead at zero sparsity.
        """
        payload = sum(t.data.size for t in self.tiles) * dtype_bytes
        masks = sum(t.mask_k.size + t.kept_n for t in self.tiles) * mask_bytes
        return payload + masks
