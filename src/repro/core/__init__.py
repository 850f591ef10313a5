"""Core tile-wise sparsity algorithms — the paper's contribution.

Public surface:

- :mod:`repro.core.importance` — element importance scores (magnitude and the
  first-order Taylor score of Eq. 1–3) and their aggregation to pruning units.
- :mod:`repro.core.tiling` — GEMM tile configuration shared by the pruner and
  the GPU cost model.
- :mod:`repro.core.schedule` — gradual sparsity schedules for multi-stage
  pruning.
- :mod:`repro.core.tile_sparsity` — one global TW pruning step (column
  pruning, tile reorganisation, row pruning).
- :mod:`repro.core.apriori` — Algorithm 2, the EW-informed apriori tuning.
- :mod:`repro.core.pruner` — Algorithm 1, the multi-stage TW pruning driver.
- :mod:`repro.core.tew` — the hybrid tile-element-wise (TEW) overlay.
- :mod:`repro.core.masks` — mask algebra shared across patterns.
"""

from repro.core.importance import (
    IMPORTANCE,
    ImportanceConfig,
    available_importance,
    column_unit_scores,
    exact_loss_delta,
    magnitude_score,
    normalize_scores,
    resolve_importance,
    row_unit_scores,
    taylor_score,
)
from repro.core.tiling import TileConfig
from repro.core.schedule import (
    SCHEDULES,
    GradualSchedule,
    available_schedules,
    resolve_schedule,
)
from repro.core.masks import (
    topk_keep_mask,
    validate_tw_mask,
)
from repro.core.tile_sparsity import TWPruneConfig, split_stage_sparsity, tw_prune_step
from repro.core.apriori import AprioriConfig, apriori_adjust, unit_ew_sparsity
from repro.core.pruner import (
    ArrayModel,
    PrunableModel,
    PruningResult,
    TWPruner,
    stage_scores,
)
from repro.core.tew import TEWConfig, TEWSolution, tew_overlay

__all__ = [
    "IMPORTANCE",
    "ImportanceConfig",
    "available_importance",
    "column_unit_scores",
    "exact_loss_delta",
    "magnitude_score",
    "normalize_scores",
    "resolve_importance",
    "row_unit_scores",
    "taylor_score",
    "TileConfig",
    "SCHEDULES",
    "GradualSchedule",
    "available_schedules",
    "resolve_schedule",
    "topk_keep_mask",
    "validate_tw_mask",
    "TWPruneConfig",
    "split_stage_sparsity",
    "tw_prune_step",
    "AprioriConfig",
    "apriori_adjust",
    "unit_ew_sparsity",
    "ArrayModel",
    "PrunableModel",
    "PruningResult",
    "TWPruner",
    "stage_scores",
    "TEWConfig",
    "TEWSolution",
    "tew_overlay",
]
