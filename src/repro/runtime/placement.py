"""Placement: the ordered device list a compiled layer stack serves on.

Every device runs the same compiled formats, so spreading a model over
several :class:`~repro.gpu.device.DeviceSpec` instances needs no new
formats.  A :class:`Placement` says which device slot runs each
micro-batch *wave*: the full layer stack runs on every device and whole
waves round-robin across them, so one device is the single-device case
and ``N`` devices are ``N`` replicas.

The paper's parallelism lives inside one GEMM (tiles batched across SMs
and streams), so no placement splits a wave's layers across slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec, V100

__all__ = ["Placement"]


@dataclass(frozen=True)
class Placement:
    """An ordered device list; wave ``w`` runs on slot ``w % n_devices``.

    ``devices`` order is meaningful: wave 0 goes to the first entry.
    Frozen and hashable, so a placement can sit inside cache keys and
    ``ServerConfig``.
    """

    devices: tuple[DeviceSpec, ...] = (V100,)

    def __post_init__(self) -> None:
        devices = tuple(self.devices)
        if not devices:
            raise ValueError("placement needs at least one device")
        for d in devices:
            if not isinstance(d, DeviceSpec):
                raise TypeError(f"devices must be DeviceSpec, got {type(d).__name__}")
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

        Waves round-robin across the devices; one device always answers
        slot 0.  A pure function of the wave index, so executors may
        reorder *when* a wave runs, never *where*.
        """
        return wave_index % self.n_devices

    def device_labels(self) -> list[str]:
        """Unique per-slot labels (``name#slot``) for stats attribution.

        Two replicas of the same device model are distinct *slots* even
        though their :class:`DeviceSpec`\\ s compare equal; stats must not
        collapse them or two replicas would look like one busy device.
        """
        return [f"{d.name}#{i}" for i, d in enumerate(self.devices)]
