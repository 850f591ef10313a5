"""Cross-tile batching plans (paper Fig. 7 step 3).

Equal-width TW tiles batch into one kernel; :func:`batching_plan` lists
which tiles go to which kernel and at what padded depth, and
:mod:`repro.runtime.scheduler` assigns those groups to streams.  The plan
describes the GPU launch schedule only, and nothing that executes or
prices reads it: the host's :func:`repro.kernels.masked.tw_gemm` walks
the tiles in index order, and the cost model
(:func:`repro.gpu.tw_kernel.tw_gemm_cost`) groups the tiles by width
itself.  ``repro.compile`` builds one plan per layer and device
(``CompiledLayer.plans``) for the repository benchmark alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.tiled import TiledTWMatrix
from repro.gpu.tw_kernel import TWShapeStats

__all__ = ["BatchGroup", "batching_plan"]


@dataclass(frozen=True)
class BatchGroup:
    """One batched kernel: tiles sharing a width.

    Attributes
    ----------
    width:
        Common tile width ``N_i``.
    tile_ids:
        Indices into the layer's tile list.
    max_depth:
        Deepest ``K_i`` in the group — the batched kernel's main-loop bound
        (shallower tiles predicate off the tail, so the batch's wall time
        follows the deepest member).
    """

    width: int
    tile_ids: tuple[int, ...]
    max_depth: int

    @property
    def n_tiles(self) -> int:
        """Tiles in this batch."""
        return len(self.tile_ids)

    def padded_work(self) -> int:
        """Multiply-adds if every member ran at ``max_depth`` (the padding
        overhead batching trades for fewer launches)."""
        return self.max_depth * self.width * self.n_tiles


def batching_plan(shape: TWShapeStats | TiledTWMatrix) -> list[BatchGroup]:
    """Group a layer's tiles into batched kernels, widest first.

    Accepts either the cost model's :class:`TWShapeStats` geometry or a
    compacted :class:`~repro.formats.tiled.TiledTWMatrix` directly —
    ``tile_ids`` index the same tile list either way.
    """
    if isinstance(shape, TiledTWMatrix):
        shape = TWShapeStats.from_matrix(shape)
    groups: dict[int, list[int]] = shape.width_groups()
    plan = []
    for width, ids in sorted(groups.items(), reverse=True):
        max_depth = max((shape.tiles[i][0] for i in ids), default=0)
        plan.append(BatchGroup(width=width, tile_ids=tuple(ids), max_depth=max_depth))
    return plan
