"""Placement policies: mapping a compiled layer stack onto devices.

Every device runs the same compiled formats, so spreading a model over
several :class:`~repro.gpu.device.DeviceSpec` instances needs no new
formats.  A :class:`Placement` says which device slot runs each
micro-batch *wave*; a wave's layers all run on that one slot:

- ``single``     — everything on one device (the historical behaviour);
- ``replicated`` — the full layer stack runs on every device and waves
  round-robin across the replicas (throughput scaling).

The paper's parallelism lives inside one GEMM (tiles batched across SMs
and streams), so no placement splits a wave's layers across slots.

Placements are resolved through :data:`PLACEMENTS` (same registry class as
patterns/engines) so new policies — e.g. width-sharded tiles — are registry
entries, not new dispatch paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec, V100
from repro.patterns.registry import Registry

__all__ = ["Placement", "PLACEMENTS", "resolve_placement"]

PLACEMENTS = Registry("placement")
for _kind in ("single", "replicated"):
    PLACEMENTS.register(_kind, (lambda k: lambda **kw: Placement(k, **kw))(_kind))


@dataclass(frozen=True)
class Placement:
    """One placement policy over an ordered device list.

    ``devices`` order is meaningful: ``single`` uses the first entry and
    ``replicated`` sends wave 0 to the first.  Frozen and
    hashable, so a placement can sit inside cache keys and ``ServerConfig``.
    """

    kind: str = "single"
    devices: tuple[DeviceSpec, ...] = (V100,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PLACEMENTS.canonical(self.kind))
        devices = tuple(self.devices)
        if not devices:
            raise ValueError("placement needs at least one device")
        for d in devices:
            if not isinstance(d, DeviceSpec):
                raise TypeError(f"devices must be DeviceSpec, got {type(d).__name__}")
        if self.kind == "single" and len(devices) != 1:
            raise ValueError(
                f"'single' placement takes exactly one device, got {len(devices)}"
            )
        object.__setattr__(self, "devices", devices)

    @property
    def n_devices(self) -> int:
        """Devices participating in this placement."""
        return len(self.devices)

    @property
    def primary(self) -> DeviceSpec:
        """The device that anchors single-device work (first in the list)."""
        return self.devices[0]

    def slot_for_wave(self, wave_index: int) -> int:
        """Device slot that runs every layer of micro-batch wave ``wave_index``.

        ``replicated`` round-robins waves across its replicas; ``single``
        (one device) always answers slot 0.  A pure function of the wave
        index, so executors may reorder *when* a wave runs, never *where*.
        """
        return wave_index % self.n_devices

    def device_labels(self) -> list[str]:
        """Unique per-slot labels (``name#slot``) for stats attribution.

        Two replicas of the same device model are distinct *slots* even
        though their :class:`DeviceSpec`\\ s compare equal; stats must not collapse them or a
        replicated placement would look like one busy device.
        """
        return [f"{d.name}#{i}" for i, d in enumerate(self.devices)]


def resolve_placement(
    placement: "Placement | str | None",
    devices: tuple[DeviceSpec, ...] | list[DeviceSpec] | None = None,
    default_device: DeviceSpec = V100,
) -> Placement:
    """Normalise the front door's ``placement=`` argument.

    Accepts a ready :class:`Placement`, a kind string (optionally with a
    device list), or ``None`` (single device, ``default_device``).
    """
    if placement is None:
        if devices:
            seq = tuple(devices)
            return Placement("single" if len(seq) == 1 else "replicated", seq)
        return Placement("single", (default_device,))
    if isinstance(placement, Placement):
        if devices:
            raise ValueError("pass devices inside the Placement, not separately")
        return placement
    if isinstance(placement, str):
        seq = tuple(devices) if devices else (default_device,)
        return Placement(placement, seq)
    raise TypeError(
        f"placement must be a Placement, kind string or None, got {type(placement).__name__}"
    )
