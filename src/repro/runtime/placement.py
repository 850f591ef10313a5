"""Placement policies: mapping a compiled layer stack onto devices.

The ROADMAP's multi-device open item: execution plans are keyed by
device, so spreading a model over several :class:`~repro.gpu.device.DeviceSpec`
instances only needs a plan per (layer, device), not new formats.  A
:class:`Placement` says which device owns which work:

- ``single``        — everything on one device (the historical behaviour);
- ``replicated``    — the full layer stack is planned on every device and
  micro-batch *waves* round-robin across the replicas (throughput scaling);
- ``layer_sharded`` — layers are split contiguously across the devices and
  each wave flows shard to shard (model parallelism: each device only
  holds its shard's formats and plans).

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
for _kind in ("single", "replicated", "layer_sharded"):
    PLACEMENTS.register(_kind, (lambda k: lambda **kw: Placement(k, **kw))(_kind))


@dataclass(frozen=True)
class Placement:
    """One placement policy over an ordered device list.

    ``devices`` order is meaningful: ``single`` uses the first entry,
    ``layer_sharded`` assigns shard 0 to the first, and so on.  Frozen and
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

    def layer_shards(self, n_layers: int) -> list[int]:
        """Device index owning each layer (contiguous balanced split).

        ``single`` and ``replicated`` map every layer to device 0 — for
        ``replicated`` the *wave*, not the layer, picks the replica (see
        :meth:`replica_for_wave`).
        """
        if n_layers < 0:
            raise ValueError("n_layers must be non-negative")
        if self.kind != "layer_sharded" or self.n_devices == 1:
            return [0] * n_layers
        d = min(self.n_devices, max(1, n_layers))
        return [min(i * d // n_layers, d - 1) for i in range(n_layers)]

    def device_for_layer(self, layer: int, n_layers: int) -> DeviceSpec:
        """The device owning ``layer`` of an ``n_layers`` stack."""
        if not (0 <= layer < n_layers):
            raise IndexError(f"layer {layer} out of range for {n_layers} layers")
        return self.devices[self.layer_shards(n_layers)[layer]]

    def replica_for_wave(self, wave_index: int) -> int:
        """Replica device index serving micro-batch wave ``wave_index``.

        Only ``replicated`` spreads waves; other kinds pin them to the
        primary device.
        """
        if self.kind != "replicated":
            return 0
        return wave_index % self.n_devices

    def wave_slots(self, wave_index: int, n_layers: int) -> list[int]:
        """Device slot executing each layer of micro-batch wave ``wave_index``.

        This is the device→work mapping an
        :class:`~repro.runtime.executor.Executor` consumes: ``replicated``
        pins the whole wave to :meth:`replica_for_wave`'s slot, every other
        kind follows the per-layer shard map.  The mapping is a pure
        function of ``(wave_index, n_layers)`` — executors may reorder
        *when* work runs, never *where*.
        """
        if self.kind == "replicated":
            return [self.replica_for_wave(wave_index)] * n_layers
        return self.layer_shards(n_layers)

    def device_labels(self) -> list[str]:
        """Unique per-slot labels (``name#slot``) for stats attribution.

        Two replicas of the same device model are distinct *slots* even
        though their :class:`DeviceSpec`\\ s compare equal (and therefore
        share plans); stats must not collapse them or a
        replicated placement would look like one busy device.
        """
        return [f"{d.name}#{i}" for i, d in enumerate(self.devices)]

    def shard_labels(self, n_layers: int) -> list[str]:
        """Per-layer owning slot label under this placement."""
        labels = self.device_labels()
        return [labels[s] for s in self.layer_shards(n_layers)]

    def plan_devices(self, n_layers: int) -> list[tuple[DeviceSpec, ...]]:
        """Devices each layer needs execution plans for.

        ``replicated`` plans every layer on every device (any replica can
        serve any wave); ``layer_sharded`` plans each layer only on its
        shard; ``single`` only on the primary.
        """
        if self.kind == "replicated":
            return [self.devices] * n_layers
        shards = self.layer_shards(n_layers)
        return [(self.devices[s],) for s in shards]


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
