"""The shared name → factory :class:`Registry` every subsystem resolves through.

One registry class backs every user-facing string in the toolkit — patterns
and engines (:mod:`repro.patterns.registry`), executors
(:mod:`repro.runtime.executor`), fault kinds (:mod:`repro.runtime.faults`),
schedules (:mod:`repro.core.schedule`) and importance metrics
(:mod:`repro.core.importance`) — which is what makes their error messages
uniform and their ``choices`` lists self-updating.  The class lives here,
below every package that uses it, so core modules can register entries
without importing the (heavier) pattern package.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["Registry"]


class Registry:
    """A small name → factory map with helpful unknown-name errors.

    Entries may declare aliases; :meth:`canonical` folds an alias back to
    its primary name so cache keys and reports stay uniform.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        aliases: tuple[str, ...] = (),
    ):
        """Register ``factory`` under ``name`` (usable as a decorator)."""

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._factories or name in self._aliases:
                raise ValueError(f"{self.kind} {name!r} already registered")
            self._factories[name] = fn
            for alias in aliases:
                if alias in self._factories or alias in self._aliases:
                    raise ValueError(f"{self.kind} alias {alias!r} already registered")
                self._aliases[alias] = name
            return fn

        return _add(factory) if factory is not None else _add

    def names(self) -> list[str]:
        """Primary (canonical) names, sorted."""
        return sorted(self._factories)

    def canonical(self, name: str) -> str:
        """Resolve ``name`` (or an alias) to its primary name, or raise."""
        if name in self._factories:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise KeyError(
            f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def create(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the entry registered under ``name``."""
        return self._factories[self.canonical(name)](**kwargs)
