"""Gradual sparsity schedules for multi-stage pruning.

Algorithm 1 wraps each prune step in a *stage*: increase the sparsity target
a little (``GraduallyIncrease``), prune to it, fine-tune, repeat until the
final target ``S`` is reached.  Multi-stage pruning recovers accuracy far
better than one-shot pruning (paper §V, citing Han et al.).

Three increase laws are provided:

- ``linear``  — equal increments per stage;
- ``cubic``   — the Zhu & Gupta (2017) law ``s_t = S·(1 − (1 − t/T)³)``,
  front-loading pruning while the model is most plastic;
- ``geometric`` — each stage prunes a fixed fraction of the *remaining*
  weights; absolute increments shrink stage over stage, so it front-loads
  more than linear but less than cubic.

Schedules resolve through :data:`SCHEDULES` (the same
:class:`~repro.registry.Registry` class as patterns, engines
and executors), so ``repro.tune(..., schedule="gradual")`` and
the CLI accept string names and a new schedule is a ``register(...)`` call,
not a new code path:

- ``gradual`` (alias ``gradually_increase``) — :class:`GradualSchedule`
  with its full ``n_stages``/``law``/``start`` surface;
- ``oneshot`` (alias ``one_shot``) — a single stage straight at the target
  (the ablation baseline the paper compares multi-stage pruning against).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.registry import Registry

__all__ = [
    "GradualSchedule",
    "SCHEDULES",
    "resolve_schedule",
    "available_schedules",
]


@dataclass(frozen=True)
class GradualSchedule:
    """Stage-by-stage sparsity targets ending exactly at ``target``.

    Attributes
    ----------
    target:
        Final overall sparsity ``S`` in ``[0, 1)``... strictly ``< 1`` because
        fully-pruned models are degenerate (a 100%-sparse network computes
        nothing).
    n_stages:
        Number of prune+fine-tune stages (``T``); must be ≥ 1.
    law:
        ``"linear"``, ``"cubic"`` or ``"geometric"``.
    start:
        Sparsity the model already has when the schedule begins (``s0``);
        stages interpolate from ``start`` to ``target``.  Must satisfy
        ``0 ≤ start ≤ target``.  The degenerate ``start == target`` case is
        well-defined: one stage that (re-)prunes at ``target`` — useful for
        resuming a finished schedule or re-applying masks after weight
        updates — rather than an empty schedule that would skip pruning
        entirely.
    """

    target: float
    n_stages: int = 4
    law: str = "cubic"
    start: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.target < 1.0):
            raise ValueError(f"target sparsity must be in [0, 1), got {self.target}")
        if not (0.0 <= self.start < 1.0):
            raise ValueError(f"start sparsity must be in [0, 1), got {self.start}")
        if self.start > self.target:
            raise ValueError(
                f"start sparsity {self.start} exceeds target {self.target}: "
                "gradual schedules only increase sparsity (densifying a "
                "pruned model back up is not a schedule stage)"
            )
        if self.n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.law not in ("linear", "cubic", "geometric"):
            raise ValueError(f"unknown schedule law {self.law!r}")

    def stages(self) -> list[float]:
        """Return the per-stage sparsity targets, strictly increasing to ``S``.

        Stages that would repeat a previous target (possible with
        ``target == start``, e.g. ``target=0``) are collapsed, so every
        returned value demands new pruning work; the degenerate all-equal
        case collapses to the single stage ``[target]``.
        """
        t = np.arange(1, self.n_stages + 1) / self.n_stages
        span = self.target - self.start
        if self.law == "linear":
            s = self.start + span * t
        elif self.law == "cubic":
            s = self.start + span * (1.0 - (1.0 - t) ** 3)
        else:  # geometric: keep fraction decays exponentially to 1 - target
            keep_start = 1.0 - self.start
            keep_final = 1.0 - self.target
            s = 1.0 - keep_start * (keep_final / keep_start) ** t
            # geometric cannot hit target exactly for t<1 by construction,
            # but the last stage must land on it precisely:
            s[-1] = self.target
        out: list[float] = []
        for v in s:
            v = float(min(v, self.target))
            if not out or v > out[-1] + 1e-12:
                out.append(v)
        if not out:
            out = [self.target]
        out[-1] = self.target
        return out


def _oneshot(
    target: float,
    n_stages: int | None = None,
    law: str | None = None,
    start: float = 0.0,
) -> GradualSchedule:
    """One stage straight at the target; conflicting knobs are errors.

    ``n_stages``/``law`` requests are rejected rather than silently
    swallowed — the same no-silent-drop contract ``tune(train=...)``
    applies to fine-tuning budgets.
    """
    if n_stages not in (None, 1) or law is not None:
        raise ValueError(
            "the oneshot schedule is single-stage by definition — drop "
            "n_stages=/law= or use schedule='gradual'"
        )
    return GradualSchedule(target=target, n_stages=1, start=start)


#: name → schedule factory; ``repro.tune`` and the CLI resolve here
SCHEDULES = Registry("schedule")
SCHEDULES.register(
    "gradual",
    GradualSchedule,
    aliases=("gradually_increase",),
)
SCHEDULES.register("oneshot", _oneshot, aliases=("one_shot",))


def resolve_schedule(
    spec: "GradualSchedule | str | None",
    *,
    target: float,
    **kwargs,
) -> GradualSchedule:
    """A :class:`GradualSchedule` from a registry name, instance, or ``None``.

    ``None`` means the default ``gradual`` entry.  Extra ``kwargs``
    (``n_stages``, ``law``, ``start``) are forwarded to the factory with
    ``None`` values dropped, so callers can thread optional CLI flags
    straight through.  An instance passes through untouched (its own
    ``target`` wins over the ``target`` argument).
    """
    if isinstance(spec, GradualSchedule):
        return spec
    if spec is None:
        spec = "gradual"
    if not isinstance(spec, str):
        raise TypeError(
            f"schedule must be a GradualSchedule, a registry name or None, "
            f"got {type(spec).__name__}"
        )
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return SCHEDULES.create(spec, target=target, **kwargs)


def available_schedules() -> list[str]:
    """Canonical schedule names."""
    return SCHEDULES.names()
