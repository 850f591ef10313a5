"""Spans recorded from outside the program, around calls into its modules.

A :class:`Tracer` replaces a module attribute with a wrapper that opens a
span (name, start, end, parent) around the original call.  Wrappers go in
where each name is *looked up*: ``repro.api`` and
``repro.runtime.executor`` import ``tw_gemm`` and ``apply_epilogue`` by
name, so patching ``repro.kernels`` alone would miss both call sites.
Spans stay in memory; :meth:`Tracer.summary` reports each span name's
calls, median duration and total self time (duration minus the time its
child spans cover) when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory spans; each thread nests its own spans under its open one."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, key=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``key(*args, **kwargs)``, when given, suffixes the span name (the
        layer a ``tw_gemm`` call serves, for instance).  Class methods
        stay class methods.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = name if key is None else f"{name}.{key(*args, **kwargs)}"
            with self.span(label):
                return target(*args, **kwargs)

        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of the finished ``name`` spans, only those whose parent
        span is named ``under`` when that is given."""
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and s[2] and (under is None or (s[3] >= 0 and self.spans[s[3]][0] == under))
        ]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, median duration (ms), total and self time (ms)."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0 and s[2]:
                child_s[s[3]] += s[2] - s[1]
        rows: dict[str, dict] = {}
        by_name = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[2]:
                by_name[s[0]].append((s[2] - s[1], s[2] - s[1] - child_s[i]))
        for name, pairs in sorted(by_name.items()):
            dur = np.array([p[0] for p in pairs]) * 1e3
            own = np.array([p[1] for p in pairs]) * 1e3
            rows[name] = {
                "calls": len(pairs),
                "p50_ms": float(np.median(dur)),
                "total_ms": float(dur.sum()),
                "self_ms": float(own.sum()),
            }
        return rows

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}))
                fh.write("\n")


def install_kernel_wrappers(tracer: Tracer, layer_names: dict[int, str]) -> None:
    """Span every ``tw_gemm`` (keyed by layer) and ``apply_epilogue`` call.

    ``layer_names`` maps ``id(TiledTWMatrix)`` to the layer's name; the
    server adopts the compiled formats, so one map serves ``run()`` and the
    in-process executors alike.
    """
    import repro.api
    import repro.runtime.executor

    def layer_of(a, weight, *rest, **kw):
        return layer_names.get(id(weight), "other")

    for mod in (repro.api, repro.runtime.executor):
        tracer.wrap(mod, "tw_gemm", "kernels.tw_gemm", key=layer_of)
        tracer.wrap(mod, "apply_epilogue", "kernels.epilogue")


def install_setup_wrappers(tracer: Tracer) -> None:
    """Span the compile stages: prune, compact, plan, and server warm-up."""
    import repro.api
    import repro.runtime.server
    from repro.formats.tiled import TiledTWMatrix

    tracer.wrap(repro.api, "tw_prune_step", "core.prune")
    tracer.wrap(TiledTWMatrix, "from_masks", "formats.compact")
    tracer.wrap(repro.api, "build_execution_plan", "runtime.scheduler.plan")
    tracer.wrap(repro.runtime.server, "build_execution_plan", "runtime.scheduler.plan")
    tracer.wrap(repro.runtime.server.TWModelServer, "warm", "runtime.executor.warm")


def install_server_wrappers(tracer: Tracer) -> None:
    """Span server admission and flushes, and wire decode/encode."""
    import repro.runtime.server
    import repro.runtime.wire

    tracer.wrap(repro.runtime.server.TWModelServer, "submit", "runtime.server.submit")
    tracer.wrap(repro.runtime.server.TWModelServer, "flush", "runtime.server.flush")
    tracer.wrap(repro.runtime.wire, "decode_tensor", "runtime.wire.decode")
    tracer.wrap(repro.runtime.wire, "encode_tensor", "runtime.wire.encode")
