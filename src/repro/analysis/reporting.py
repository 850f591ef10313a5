"""Result records, persistence and ASCII rendering for the bench harness.

Every benchmark writes an :class:`ExperimentRecord` to ``results/`` so
EXPERIMENTS.md's paper-vs-measured tables can be regenerated, and prints
the same series the paper's figure shows (as aligned text) so the shape is
inspectable without a plotting stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "ExperimentRecord",
    "format_table",
    "ascii_series",
    "ascii_bars",
    "save_results",
]


@dataclass
class ExperimentRecord:
    """One experiment's reproduced data plus paper reference points."""

    experiment: str                       # e.g. "fig9b"
    description: str
    series: dict[str, Any] = field(default_factory=dict)
    paper_anchors: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready payload."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "series": self.series,
            "paper_anchors": self.paper_anchors,
            "notes": self.notes,
        }


def save_results(record: ExperimentRecord, directory: str | Path = "results") -> Path:
    """Write a record to ``directory/<experiment>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record.experiment}.json"
    path.write_text(json.dumps(record.as_dict(), indent=2, default=float))
    return path


def format_table(headers: list[str], rows: list[list[Any]], precision: int = 3) -> str:
    """Render an aligned text table."""
    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.{precision}f}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_series(
    xs: list[float], ys: list[float], width: int = 50, label: str = ""
) -> str:
    """Render an x/y series as one bar row per sample (log-free)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal lengths")
    if not ys:
        return f"{label}: (empty)"
    top = max(max(ys), 1e-12)
    lines = [f"{label}"] if label else []
    for x, y in zip(xs, ys):
        bar = "#" * max(0, int(round(width * y / top)))
        lines.append(f"  {x:>8.3g} | {bar} {y:.3g}")
    return "\n".join(lines)


def ascii_bars(items: dict[str, float], width: int = 50) -> str:
    """Render labelled magnitudes as horizontal bars."""
    if not items:
        return "(empty)"
    top = max(max(items.values()), 1e-12)
    label_w = max(len(k) for k in items)
    lines = []
    for k, v in items.items():
        bar = "#" * max(0, int(round(width * v / top)))
        lines.append(f"  {k.ljust(label_w)} | {bar} {v:.3g}")
    return "\n".join(lines)
