"""Deterministic fault injection for the serving runtime (ISSUE 6).

A millions-of-users deployment is defined by how it behaves when things go
wrong, and "things going wrong" must be *reproducible* to be testable.
This module provides that: a seeded, deterministic :class:`FaultInjector`
that wraps wave-step execution (see
:func:`repro.runtime.executor._execute_steps`) and injects failures at
sites identified by ``(wave index, layer, slot)``:

- ``exception`` — raise :class:`InjectedFault` *before* the step's GEMM
  runs (a failing kernel launch);
- ``latency``   — sleep ``duration_s`` before the GEMM (a latency spike;
  the time shows up in the slot's busy accounting).  A ``duration_s``
  past the ``threaded`` executor's watchdog models a hung worker: the
  watchdog fails the wave and retires the worker.  Under ``inline`` there is no
  watchdog (the calling thread *is* the worker), so it stays a bounded
  spike.

Fault kinds resolve through :data:`FAULTS` — the same
:class:`~repro.registry.Registry` class as patterns, engines, placements
and executors — so a new failure mode (corrupted output, OOM, partial
write) is a registry entry, not a new dispatch path.

Determinism contract
--------------------
Whether a rule fires at a site is a pure function of
``(rule seed, wave index, layer, slot)`` — probabilistic rules
(``rate < 1``) hash the site into a fresh ``numpy`` generator rather than
consuming a shared stream — so a fault schedule replays *exactly* across
runs, executors and thread interleavings.  The only stateful knob is
``max_fires`` (a thread-safe countdown used to model faults that clear
after N hits); its count order is deterministic under ``inline`` and may
interleave under ``threaded`` — predicate-only rules are exact everywhere.

Retried waves get *fresh* wave indices (the server's wave counter is
global), so a rule pinned to ``wave=3`` models a transient fault — the
retry of that wave runs under a different index and succeeds — while a
rule with ``layer=0`` and no wave predicate models a deterministic fault
that survives retries and drives the server's bisection/poison path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.registry import Registry

__all__ = [
    "FAULTS",
    "Fault",
    "ExceptionFault",
    "LatencyFault",
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "available_faults",
    "resolve_faults",
]

FAULTS = Registry("fault")


class InjectedFault(RuntimeError):
    """The error an ``exception`` fault raises inside step execution.

    A distinct type so chaos tests (and retry accounting) can tell an
    injected failure from a genuine bug in the serving path.
    """


class Fault:
    """One failure behaviour, fired at a matching ``(wave, layer, slot)`` site."""

    kind = "base"

    def fire(self, wave: int, layer: int, slot: int) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for CLI/stats reporting."""
        return self.kind


@dataclass(frozen=True)
class ExceptionFault(Fault):
    """Raise :class:`InjectedFault` before the step's GEMM runs."""

    kind = "exception"

    def fire(self, wave: int, layer: int, slot: int) -> None:
        raise InjectedFault(
            f"injected exception at wave={wave} layer={layer} slot={slot}"
        )


@dataclass(frozen=True)
class LatencyFault(Fault):
    """Sleep ``duration_s`` before the step's GEMM (a latency spike)."""

    duration_s: float = 0.05
    kind = "latency"

    def __post_init__(self) -> None:
        if not np.isfinite(self.duration_s) or self.duration_s < 0:
            raise ValueError(
                f"duration_s must be finite and non-negative, got {self.duration_s!r}"
            )

    def fire(self, wave: int, layer: int, slot: int) -> None:
        time.sleep(self.duration_s)

    def describe(self) -> str:
        return f"{self.kind}({self.duration_s}s)"


FAULTS.register("exception", lambda **kw: ExceptionFault(**kw), aliases=("error",))
FAULTS.register("latency", lambda **kw: LatencyFault(**kw), aliases=("spike",))


def available_faults() -> list[str]:
    """Canonical fault-kind names."""
    return FAULTS.names()


def _match(predicate, value: int) -> bool:
    """One site coordinate against a rule predicate.

    ``None`` matches everything; an int matches exactly; a collection
    matches membership; a callable decides itself.
    """
    if predicate is None:
        return True
    if callable(predicate):
        return bool(predicate(value))
    if isinstance(predicate, (set, frozenset, tuple, list, range)):
        return value in predicate
    return value == int(predicate)


@dataclass
class FaultRule:
    """One injection rule: a fault kind plus site predicates.

    ``wave``/``layer``/``slot`` each accept ``None`` (match all), an int,
    a collection of ints, or a predicate callable.  ``rate`` thins the
    matching sites probabilistically but *deterministically*: the decision
    at a site hashes ``(seed, wave, layer, slot)`` into a fresh generator,
    so it never depends on execution order.  ``max_fires`` caps total
    fires (thread-safe countdown) to model faults that clear.
    """

    fault: Fault
    wave: object = None
    layer: object = None
    slot: object = None
    rate: float = 1.0
    max_fires: int | None = None
    seed: int = 0
    #: fires so far (observability; mutated under the injector's lock)
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.fault, str):
            self.fault = FAULTS.create(self.fault)
        if not isinstance(self.fault, Fault):
            raise TypeError(
                f"fault must be a Fault or registry name, got {type(self.fault).__name__}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")
        if self.max_fires is not None and (
            not isinstance(self.max_fires, int) or self.max_fires < 1
        ):
            raise ValueError(
                f"max_fires must be a positive int or None, got {self.max_fires!r}"
            )

    def matches(self, wave: int, layer: int, slot: int) -> bool:
        """Whether this rule fires at the site (ignoring ``max_fires``)."""
        if not (
            _match(self.wave, wave)
            and _match(self.layer, layer)
            and _match(self.slot, slot)
        ):
            return False
        if self.rate >= 1.0:
            return True
        # site-keyed determinism: a fresh generator per site, never a
        # shared stream — execution order cannot change the schedule
        draw = np.random.default_rng((self.seed, wave, layer, slot)).random()
        return bool(draw < self.rate)


class FaultInjector:
    """A seeded fault schedule consulted before every wave step.

    Built from :class:`FaultRule`\\ s and wired through
    ``ServerConfig(faults=...)``; the server attaches it to every
    :class:`~repro.runtime.executor.WaveTask` so both executors consult it
    at each ``(wave, layer, slot)`` site.  ``fired_by_kind`` counts
    injections for stats/bench reporting.
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = ()) -> None:
        rules = list(rules)
        for r in rules:
            if not isinstance(r, FaultRule):
                raise TypeError(
                    f"rules must be FaultRule instances, got {type(r).__name__}"
                )
        self.rules = rules
        self.fired_by_kind: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def total_fired(self) -> int:
        """Total injections across all rules."""
        return sum(self.fired_by_kind.values())

    def before_step(self, wave: int, layer: int, slot: int) -> None:
        """Fire every matching rule at this site (may raise or sleep)."""
        for rule in self.rules:
            if not rule.matches(wave, layer, slot):
                continue
            with self._lock:
                if rule.max_fires is not None and rule.fires >= rule.max_fires:
                    continue
                rule.fires += 1
                kind = rule.fault.kind
                self.fired_by_kind[kind] = self.fired_by_kind.get(kind, 0) + 1
            rule.fault.fire(wave, layer, slot)

    def describe(self) -> str:
        """Human-readable one-liner for CLI/stats reporting."""
        if not self.rules:
            return "faults(none)"
        return "faults(" + ", ".join(r.fault.describe() for r in self.rules) + ")"

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultInjector":
        """Parse a CLI-friendly schedule string into an injector.

        Grammar: rules joined by ``;``, each ``kind[:key=value]*`` where
        ``kind`` is a :data:`FAULTS` registry name and keys are
        ``wave``/``layer``/``slot`` (int, or ``|``-joined int list),
        ``rate`` (float), ``max_fires`` (int), ``duration`` (float
        seconds, fault-kind option), ``seed`` (int, overrides the shared
        default).  Example::

            exception:wave=1;latency:rate=0.25:duration=0.01;latency:layer=0:duration=1:max_fires=1
        """
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, *options = chunk.split(":")
            kind = kind.strip()
            if kind not in FAULTS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in spec {spec!r}; "
                    f"available: {', '.join(available_faults())}"
                )
            predicates: dict[str, object] = {}
            fault_kw: dict[str, float] = {}
            rate, max_fires, rule_seed = 1.0, None, seed
            for opt in options:
                if "=" not in opt:
                    raise ValueError(
                        f"malformed fault option {opt!r} in spec {spec!r} "
                        "(expected key=value)"
                    )
                key, _, value = opt.partition("=")
                key, value = key.strip(), value.strip()
                if key in ("wave", "layer", "slot"):
                    ints = tuple(int(v) for v in value.split("|"))
                    predicates[key] = ints[0] if len(ints) == 1 else ints
                elif key == "rate":
                    rate = float(value)
                elif key == "max_fires":
                    max_fires = int(value)
                elif key == "seed":
                    rule_seed = int(value)
                elif key == "duration":
                    fault_kw["duration_s"] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} in spec {spec!r}"
                    )
            rules.append(
                FaultRule(
                    fault=FAULTS.create(kind, **fault_kw),
                    rate=rate,
                    max_fires=max_fires,
                    seed=rule_seed,
                    **predicates,
                )
            )
        return cls(rules)


def resolve_faults(faults: "FaultInjector | str | None") -> "FaultInjector | None":
    """Normalise a ``faults=`` argument (injector, spec string, or ``None``)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, str):
        return FaultInjector.from_spec(faults)
    raise TypeError(
        f"faults must be a FaultInjector, spec string or None, "
        f"got {type(faults).__name__}"
    )
