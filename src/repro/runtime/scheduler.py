"""Stream assignment and the per-layer execution plan (paper Fig. 7 step 4).

Batched kernels are distributed across CUDA streams so the hardware
scheduler can overlap their thread blocks.  The heuristic is heaviest
first onto the least-loaded stream: heavy kernels land on distinct
streams, small remainder kernels fill the gaps — mirroring how the paper
"relies on the underlying scheduler to maximise resource utilisation".
:func:`build_execution_plan` bundles
:func:`~repro.runtime.batching.batching_plan` and :func:`assign_streams`
into one :class:`ExecutionPlan`.  Like the batching plan it is a
description built for the repository benchmark; no execution, serving or
pricing path reads it.
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

    def execution_order(self) -> list[BatchGroup]:
        """Groups in issue order: round-robin across streams, breadth-first.

        This is the order a host thread would issue the batched kernels so
        every stream has work in flight.  It describes the GPU launch
        schedule; no host code runs groups in it.
        """
        depth = max((len(s) for s in self.streams), default=0)
        return [s[d] for d in range(depth) for s in self.streams if d < len(s)]


def assign_streams(groups: list[BatchGroup], device: DeviceSpec = V100) -> StreamAssignment:
    """Assign batch groups to streams, heaviest first onto the lightest."""
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

    The GPU launch schedule of paper Fig. 7 (batch → stream) for one
    weight matrix and device, built by :func:`build_execution_plan`.  It
    is a description only: :func:`repro.kernels.masked.tw_gemm` walks
    the tiles in index order and never reads a plan.
    """

    groups: tuple[BatchGroup, ...]
    assignment: StreamAssignment

    def execution_order(self) -> list[BatchGroup]:
        """Issue order over streams (see :meth:`StreamAssignment.execution_order`)."""
        return self.assignment.execution_order()


def build_execution_plan(
    shape: TWShapeStats | TiledTWMatrix, device: DeviceSpec = V100
) -> ExecutionPlan:
    """Plan a layer end to end: width-group its tiles, assign streams."""
    groups = batching_plan(shape)
    return ExecutionPlan(groups=tuple(groups), assignment=assign_streams(groups, device))
