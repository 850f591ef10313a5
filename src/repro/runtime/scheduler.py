"""Stream-assignment heuristics (paper Fig. 7 step 4).

Batched kernels are distributed across CUDA streams so the hardware
scheduler can overlap their thread blocks.  The heuristic is longest-work-
first round-robin: heavy kernels land on distinct streams, small remainder
kernels fill the gaps — mirroring how the paper "relies on the underlying
scheduler to maximise resource utilisation".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.formats.tiled import TiledTWMatrix
from repro.gpu.device import DeviceSpec, V100
from repro.gpu.tw_kernel import TWShapeStats
from repro.runtime.batching import BatchGroup, batching_plan

__all__ = ["StreamAssignment", "assign_streams", "ExecutionPlan", "build_execution_plan"]


@dataclass
class StreamAssignment:
    """Mapping of batch groups to streams."""

    streams: list[list[BatchGroup]] = field(default_factory=list)

    @property
    def n_streams(self) -> int:
        """Streams actually used."""
        return sum(1 for s in self.streams if s)

    def stream_work(self) -> list[int]:
        """Padded multiply-add work per stream (balance diagnostic)."""
        return [sum(g.padded_work() for g in s) for s in self.streams]

    def imbalance(self) -> float:
        """Max/mean work ratio across used streams (1.0 = balanced)."""
        work = [w for w in self.stream_work() if w > 0]
        if not work:
            return 1.0
        mean = sum(work) / len(work)
        return max(work) / mean if mean > 0 else 1.0

    def _issue_walk(self):
        """Yield ``(group, stream_index)`` round-robin across streams,
        breadth-first — the single source of truth for issue order."""
        depth = max((len(s) for s in self.streams), default=0)
        for d in range(depth):
            for si, s in enumerate(self.streams):
                if d < len(s):
                    yield s[d], si

    def execution_order(self) -> list[BatchGroup]:
        """Groups in issue order: round-robin across streams, breadth-first.

        This is the order a host thread would issue the batched kernels so
        every stream has work in flight — the functional executor runs
        groups in this order, making the stream schedule observable (each
        position ``i`` issues on stream ``order_streams()[i]``).
        """
        return [g for g, _ in self._issue_walk()]

    def order_streams(self) -> list[int]:
        """Stream index of each :meth:`execution_order` position."""
        return [si for _, si in self._issue_walk()]


def assign_streams(
    groups: list[BatchGroup], device: DeviceSpec = V100, enabled: bool = True
) -> StreamAssignment:
    """Assign batch groups to streams, heaviest first onto the lightest.

    With streams disabled, everything lands on one stream (sequential
    execution — the "Naive Stream" row of Fig. 7).
    """
    if not enabled:
        return StreamAssignment(streams=[list(groups)])
    n = max(1, min(device.max_concurrent_streams, len(groups)))
    streams: list[list[BatchGroup]] = [[] for _ in range(n)]
    load = [0] * n
    for g in sorted(groups, key=lambda g: g.padded_work(), reverse=True):
        target = min(range(n), key=load.__getitem__)
        streams[target].append(g)
        load[target] += g.padded_work()
    return StreamAssignment(streams=streams)


@dataclass(frozen=True)
class ExecutionPlan:
    """One layer's full execution schedule: batch groups + stream mapping.

    The single artifact compiled per weight matrix and device — built
    once by :func:`build_execution_plan`, then replayed by
    :func:`repro.kernels.masked.tw_gemm` for every request (the paper's
    pipeline: plan → batch → stream → execute).
    """

    groups: tuple[BatchGroup, ...]
    assignment: StreamAssignment

    @property
    def n_kernels(self) -> int:
        """Kernel launches the plan issues (one per batch group)."""
        return len(self.groups)

    def execution_order(self) -> list[BatchGroup]:
        """Issue order over streams (see :meth:`StreamAssignment.execution_order`)."""
        return self.assignment.execution_order()


def build_execution_plan(
    shape: TWShapeStats | TiledTWMatrix,
    device: DeviceSpec = V100,
    *,
    batching: bool = True,
    streams: bool = True,
) -> ExecutionPlan:
    """Plan a layer end to end: width-group its tiles, assign streams."""
    groups = batching_plan(shape, enabled=batching)
    assignment = assign_streams(groups, device, enabled=streams)
    return ExecutionPlan(groups=tuple(groups), assignment=assignment)
