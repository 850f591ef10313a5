"""Shared-memory weight arenas for the ``process`` executor (ISSUE 7).

The process executor's whole premise is that a wave descriptor crossing
the pickle boundary stays *small*: request rows, layer ids, slot tags,
plans.  The heavy operands — a layer's compacted
:class:`~repro.formats.tiled.TiledTWMatrix` payloads **and** the per-tile
compute operands ``tw_gemm`` multiplies (each tile's depth-padded gather
indices and weight panel in the compute dtype, see
:func:`repro.kernels.masked.tile_operands`) — are placed once, at server
cache-fill time, into a
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Worker
processes then *map* the segment and reconstruct the matrix as zero-copy
read-only NumPy views; the per-wave message only carries an
:class:`ArenaRef` (segment name + slot table), a few hundred bytes.

Lifecycle contract
------------------
- Arenas are **fingerprint-keyed**: :func:`place` is idempotent per key
  and refcounted, so two servers (or two layers sharing weights) sharing
  a format-cache key share one segment.
- The owning process (the server) is the only one that ever *unlinks*.
  :func:`release` drops a reference and unlinks at zero;
  ``TWModelServer.close()`` releases every arena it placed.  Unlinking
  while workers still map the segment is safe on POSIX — their mappings
  survive until they detach — so a crashed or straggling worker can never
  resurrect a segment, and a worker attaching *after* the unlink fails
  cleanly (its wave fails, the server's retry path rebuilds the arena).
- A module-level ``atexit`` hook unlinks anything still owned, so even an
  un-``close()``-d server cannot leak ``/dev/shm`` segments past
  interpreter exit.  :func:`leaked_segments` scans ``/dev/shm`` for the
  ``repro-arena`` prefix so tests can assert cleanliness directly.

Worker side
-----------
:func:`attach` maps a segment (cached per segment name, so a persistent
worker pays the map once per arena, not per wave) and rebuilds the
:class:`TiledTWMatrix` from views.  Crucially it also pre-seeds the
matrix's per-tile operand memo with shm-backed views, so the worker's
:func:`~repro.kernels.masked.tw_gemm` never builds, upcasts or dequantises
an operand — the zero-copy panels are the same bytes the parent computed,
which is half of the bit-identity argument (the other half: BLAS GEMM
reduction order does not depend on which process calls it, given the
depths ``tw_gemm`` pads to).
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.formats.tiled import TiledTWMatrix, TWTile
from repro.kernels.masked import gemm_dtypes, tile_operands

__all__ = [
    "ArenaRef",
    "ArraySlot",
    "SEGMENT_PREFIX",
    "place",
    "release",
    "release_all",
    "attach",
    "detach_all",
    "owned_segments",
    "leaked_segments",
]

#: every arena segment name starts with this, so tests (and operators
#: staring at /dev/shm) can attribute segments to this runtime
SEGMENT_PREFIX = "repro-arena"

_ALIGN = 64  # byte alignment of every slot (safe for any numpy dtype)


@dataclass(frozen=True)
class ArraySlot:
    """One array inside a segment: ``(byte offset, shape, dtype name)``."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class TileSlots:
    """Slot table for one :class:`TWTile` (cols / mask_k / data)."""

    cols: ArraySlot
    mask: ArraySlot
    data: ArraySlot


@dataclass(frozen=True)
class OperandSlots:
    """Slot table for one tile's compute operand (its memo entry).

    ``rows`` holds the depth-padded gather indices, ``panel`` the weight
    panel in the arena's compute dtype.
    """

    tile_id: int
    rows: ArraySlot
    panel: ArraySlot


@dataclass(frozen=True)
class ArenaRef:
    """Picklable handle to a placed arena — all a worker needs to attach.

    A few hundred bytes of plain data: the segment name plus the slot
    table describing where each tile array and tile operand lives.
    ``compute_dtype`` names the dtype the operands were built in; tiles
    with nothing to compute have no operand slot (workers memoise their
    ``None`` on first use, which allocates nothing).
    """

    name: str
    shape: tuple[int, int]
    granularity: int
    tiles: tuple[TileSlots, ...]
    operands: tuple[OperandSlots, ...]
    compute_dtype: str
    nbytes: int
    #: per-tile dequantisation scales (plain floats — a few bytes per tile,
    #: so they ride the picklable ref rather than earning shm slots).
    #: Empty on refs placed before quantisation support; attach() treats
    #: that as the neutral scale 1.0 for every tile.
    scales: tuple[float, ...] = ()


class _Owned:
    """Owner-side bookkeeping: the live mapping, its ref, its refcount."""

    def __init__(self, shm: shared_memory.SharedMemory, ref: ArenaRef) -> None:
        self.shm = shm
        self.ref = ref
        self.refcount = 1


_lock = threading.Lock()
_owned: dict[object, _Owned] = {}  # cache key -> owned arena
_counter = 0
# worker-side attachments: segment name -> (mapping, reconstructed matrix)
_attached: dict[str, tuple[shared_memory.SharedMemory, TiledTWMatrix]] = {}


def _next_name() -> str:
    global _counter
    with _lock:
        _counter += 1
        return f"{SEGMENT_PREFIX}-{os.getpid()}-{_counter}"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _tile_ids(plans) -> list[int]:
    """Unique tile ids across plans, in first-seen order.

    ``batching_plan`` is a pure function of the weight, so every device's
    plan for one layer names the *same* tiles — placing the first plan's
    operands covers all of them.
    """
    seen: dict[int, None] = {}
    for plan in plans or ():
        groups = plan.groups if hasattr(plan, "groups") else plan
        for group in groups:
            seen.update(dict.fromkeys(group.tile_ids))
    return list(seen)


def place(key: object, tw: TiledTWMatrix, plans=(), dtype=None) -> ArenaRef:
    """Place (or re-reference) one layer's TW format + operands in shm.

    Idempotent per ``key`` (the server's format-cache key): a repeat call
    bumps the refcount and returns the existing :class:`ArenaRef`.  The
    operands of the tiles ``plans`` name are built in the compute dtype of
    ``dtype`` activations (default: the payload dtype) through
    :func:`~repro.kernels.masked.tile_operands` — which also memoises them
    on ``tw`` for the parent's own (inline-oracle) use — then copied into
    the segment.
    """
    with _lock:
        hit = _owned.get(key)
        if hit is not None:
            hit.refcount += 1
            return hit.ref
    a_dtype = tw.dtype if dtype is None else np.dtype(dtype)
    compute_dtype, _ = gemm_dtypes(a_dtype, tw.dtype)

    # gather every array the segment will hold, in layout order
    arrays: list[np.ndarray] = []
    for t in tw.tiles:
        arrays.extend((
            np.ascontiguousarray(t.col_indices, dtype=np.int64),
            np.ascontiguousarray(t.mask_k, dtype=bool),
            np.ascontiguousarray(t.data),
        ))
    tids = _tile_ids(plans)
    memo = tile_operands(tw, compute_dtype, tids)
    op_ids = [tid for tid in tids if memo[tid] is not None]
    for tid in op_ids:
        arrays.extend(memo[tid])

    offsets: list[int] = []
    cursor = 0
    for arr in arrays:
        cursor = _align(cursor)
        offsets.append(cursor)
        cursor += arr.nbytes
    nbytes = max(cursor, 1)  # SharedMemory rejects size 0

    shm = shared_memory.SharedMemory(create=True, size=nbytes, name=_next_name())
    slot_iter = iter(zip(arrays, offsets))

    def write(arr: np.ndarray, offset: int) -> ArraySlot:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
        view[...] = arr
        return ArraySlot(offset=offset, shape=arr.shape, dtype=arr.dtype.str)

    tile_slots = tuple(
        TileSlots(*(write(*next(slot_iter)) for _ in range(3)))
        for _ in tw.tiles
    )
    operand_slots = tuple(
        OperandSlots(
            tile_id=tid,
            rows=write(*next(slot_iter)),
            panel=write(*next(slot_iter)),
        )
        for tid in op_ids
    )
    ref = ArenaRef(
        name=shm.name,
        shape=tuple(tw.shape),
        granularity=tw.granularity,
        tiles=tile_slots,
        operands=operand_slots,
        compute_dtype=compute_dtype.str,
        nbytes=nbytes,
        scales=tuple(float(t.scale) for t in tw.tiles),
    )
    with _lock:
        racer = _owned.get(key)
        if racer is not None:  # lost a race: keep theirs, drop ours
            racer.refcount += 1
            shm.close()
            shm.unlink()
            return racer.ref
        _owned[key] = _Owned(shm, ref)
    return ref


def release(key: object) -> bool:
    """Drop one reference; unlink the segment when the count hits zero.

    Returns whether the segment was actually unlinked.  Unlinking is safe
    while workers still map it (their views stay valid until they detach);
    a *new* attach after this point fails, which is the desired behaviour
    for a closed server.
    """
    with _lock:
        owned = _owned.get(key)
        if owned is None:
            return False
        owned.refcount -= 1
        if owned.refcount > 0:
            return False
        del _owned[key]
    owned.shm.close()
    try:
        owned.shm.unlink()
    except FileNotFoundError:  # already gone (e.g. atexit raced a close)
        pass
    return True


def release_all() -> int:
    """Unlink every owned segment (crash-safety sweep); returns the count."""
    with _lock:
        doomed = list(_owned.values())
        _owned.clear()
    for owned in doomed:
        owned.shm.close()
        try:
            owned.shm.unlink()
        except FileNotFoundError:
            pass
    return len(doomed)


def owned_segments() -> list[str]:
    """Names of segments this process currently owns (tests/diagnostics)."""
    with _lock:
        return sorted(o.shm.name for o in _owned.values())


def leaked_segments() -> list[str]:
    """``/dev/shm`` entries carrying our prefix (any owner, this host).

    The ground truth for the no-leak contract: after every server in a
    test closes, this must not list their segments.  Returns ``[]`` on
    hosts without a ``/dev/shm`` filesystem.
    """
    try:
        return sorted(
            n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def _view(buf, slot: ArraySlot, *, writeable: bool = False) -> np.ndarray:
    arr = np.ndarray(slot.shape, dtype=np.dtype(slot.dtype), buffer=buf,
                     offset=slot.offset)
    if not writeable:
        arr.setflags(write=False)
    return arr


def attach(ref: ArenaRef) -> TiledTWMatrix:
    """Map an arena and rebuild its :class:`TiledTWMatrix` (zero-copy).

    Cached per segment name: a persistent worker maps each arena once and
    replays it for every later wave.  The rebuilt matrix's
    per-tile operand memo is pre-seeded with shm-backed views, so
    ``tw_gemm`` on it never builds an operand.  Raises
    ``FileNotFoundError`` if the owner already unlinked the segment (a
    closed server) — the wave fails and the caller's retry path rebuilds.
    """
    hit = _attached.get(ref.name)
    if hit is not None:
        return hit[1]
    # The attach side must not be tracked by resource_tracker: spawn
    # workers share the parent's tracker process, so a worker-side
    # register is a no-op (the owner already registered the name) but a
    # worker-side *unregister* would strip the owner's entry and make the
    # owner's eventual unlink warn.  Python 3.13 grew
    # ``SharedMemory(track=False)``; on older versions suppress the
    # register call for the duration of the constructor instead.
    try:
        shm = shared_memory.SharedMemory(name=ref.name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        registered = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            shm = shared_memory.SharedMemory(name=ref.name)
        finally:
            resource_tracker.register = registered
    tiles = tuple(
        TWTile(
            col_indices=_view(shm.buf, ts.cols),
            mask_k=_view(shm.buf, ts.mask),
            data=_view(shm.buf, ts.data),
            scale=float(ref.scales[i]) if i < len(ref.scales) else 1.0,
        )
        for i, ts in enumerate(ref.tiles)
    )
    tw = TiledTWMatrix(shape=tuple(ref.shape), granularity=ref.granularity,
                       tiles=tiles)
    memo = tile_operands(tw, ref.compute_dtype)
    for op in ref.operands:
        memo[op.tile_id] = (_view(shm.buf, op.rows), _view(shm.buf, op.panel))
    _attached[ref.name] = (shm, tw)
    return tw


def detach_all() -> None:
    """Drop every cached attachment (worker shutdown).

    Views into the mappings are dropped with the matrices; the mappings
    themselves close once no view references remain (a still-referenced
    buffer just defers the close to interpreter exit — never an error).
    """
    for shm, _tw in list(_attached.values()):
        try:
            shm.close()
        except BufferError:
            pass  # a live view pins the mapping; the OS reclaims it at exit
    _attached.clear()


@atexit.register
def _cleanup_at_exit() -> None:
    # the owner's last line of defence: no /dev/shm segment outlives the
    # process that placed it, close()d or not
    release_all()
