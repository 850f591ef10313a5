"""Analysis utilities behind the paper's figures.

- :mod:`repro.analysis.distribution` — per-matrix sparsity (Fig. 5),
  zero-element CDFs across pruning-unit shapes (Fig. 6), weight heat-maps
  (Fig. 13);
- :mod:`repro.analysis.pareto` — accuracy-latency Pareto frontiers
  (Fig. 14);
- :mod:`repro.analysis.reporting` — result records, JSON persistence and
  ASCII rendering for the benchmark harnesses.
"""

from repro.analysis.distribution import (
    mask_heatmap,
    per_matrix_sparsity,
    unit_zero_fractions,
    zero_fraction_cdf,
)
from repro.analysis.pareto import ParetoPoint, pareto_frontier
from repro.analysis.reporting import (
    ExperimentRecord,
    ascii_bars,
    ascii_series,
    format_table,
    save_results,
)

__all__ = [
    "per_matrix_sparsity",
    "unit_zero_fractions",
    "zero_fraction_cdf",
    "mask_heatmap",
    "ParetoPoint",
    "pareto_frontier",
    "ExperimentRecord",
    "format_table",
    "ascii_series",
    "ascii_bars",
    "save_results",
]
