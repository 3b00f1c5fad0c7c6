"""Shared-memory array shipping: named segments behind a leased arena.

One :class:`ArrayBundle` describes a set of numpy arrays packed into a
single named ``multiprocessing.shared_memory`` segment — the bundle is a
small picklable document (segment name, per-array dtype/shape/offset)
that crosses process boundaries over a pipe while the bytes themselves
never move.  Workers :func:`pack_arrays` their stage outputs into a
segment whose *name the parent assigned up front*, and readers map
zero-copy views with :func:`map_arrays`.

The parent side holds an :class:`ShmArena`: every segment name is
reserved through it *before* the producing task is dispatched, so there
is exactly one place that knows which segments a request owns and the
arena can unlink them deterministically — on completion (after the
consumer copied what it keeps), on cancellation (the producer may never
have created the segment; a missing name is not an error), and on worker
death (the name was reserved parent-side, so a SIGKILLed producer leaks
nothing the arena cannot find).  ``repro_shm_bytes_in_use`` tracks the
live parent-side footprint.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import registry

__all__ = [
    "ArraySpec",
    "ArrayBundle",
    "pack_arrays",
    "map_arrays",
    "ShmArena",
    "shm_bytes_in_use",
]

#: Byte alignment of each array inside a segment (cache-line friendly,
#: and every float64 view stays naturally aligned).
_ALIGN = 64


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Cancel the resource tracker's claim on ``seg``.

    On CPython ≤3.12 *every* ``SharedMemory`` constructor — attach as
    well as create — registers the segment with the calling process's
    resource tracker (bpo-39959), and workers forked before the parent's
    tracker started get trackers of their own; those would "clean up"
    (warn about) names the arena already unlinked.  Segment lifetime
    here is owned by exactly one place — the reserving
    :class:`ShmArena` — so every other construction cancels its
    registration immediately and cleanup stays deterministic.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass

_BYTES_LOCK = threading.Lock()
_BYTES_IN_USE = 0


def _reset_locks_in_child() -> None:
    """Fresh locks for a forked stage worker.

    Parent threads attach and unlink segments while another request's
    pool forks, so the accounting lock — and the resource tracker's,
    which every ``SharedMemory`` attach or :func:`_untrack` takes — may
    be inherited held; the worker's first :func:`pack_arrays` would then
    block forever.
    """
    global _BYTES_LOCK
    _BYTES_LOCK = threading.Lock()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._lock = threading.RLock()
    except AttributeError:  # pragma: no cover - tracker internals moved
        pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_locks_in_child)


def _gauge():
    return registry().gauge(
        "repro_shm_bytes_in_use",
        help="Bytes of live shared-memory segments leased by worker arenas.",
    )


def _account(delta: int) -> None:
    global _BYTES_IN_USE
    with _BYTES_LOCK:
        _BYTES_IN_USE = max(0, _BYTES_IN_USE + delta)
        _gauge().set(float(_BYTES_IN_USE))


def shm_bytes_in_use() -> int:
    """Parent-side bytes currently leased across all live arenas."""
    with _BYTES_LOCK:
        return _BYTES_IN_USE


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a segment."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ArrayBundle:
    """Picklable description of arrays packed into one named segment."""

    segment: str
    nbytes: int
    arrays: Tuple[ArraySpec, ...] = field(default_factory=tuple)


def _layout(arrays: Dict[str, np.ndarray]) -> Tuple[List[ArraySpec], int]:
    specs: List[ArraySpec] = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(ArraySpec(key, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return specs, offset


def pack_arrays(name: str, arrays: Dict[str, np.ndarray]) -> ArrayBundle:
    """Copy ``arrays`` into a newly created segment called ``name``.

    Returns the bundle; the creator's handle is closed immediately (the
    mapping is only needed for the copy) and the segment stays alive
    under its name until some process unlinks it — by protocol, the
    arena that reserved the name.  An all-empty array set packs to a
    metadata-only bundle with no segment at all (``shared_memory``
    refuses zero-byte segments, and there is nothing to ship).
    """
    specs, total = _layout(arrays)
    if total == 0:
        return ArrayBundle(segment="", nbytes=0, arrays=tuple(specs))
    seg = shared_memory.SharedMemory(name=name, create=True, size=total)
    _untrack(seg)
    try:
        for spec in specs:
            arr = np.ascontiguousarray(arrays[spec.key])
            if arr.nbytes == 0:
                continue
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype),
                buffer=seg.buf, offset=spec.offset,
            )
            view[...] = arr
    finally:
        seg.close()
    return ArrayBundle(segment=name, nbytes=total, arrays=tuple(specs))


def map_arrays(
    bundle: ArrayBundle, copy: bool = False
) -> Tuple[Dict[str, np.ndarray], Optional[shared_memory.SharedMemory]]:
    """Arrays of ``bundle``: zero-copy read-only views, or copies.

    With ``copy=False`` the returned handle *must* be kept referenced for
    as long as the views are used and ``close()``\\ d afterwards; with
    ``copy=True`` the handle is already closed and ``None`` is returned.
    """
    if not bundle.segment:
        return {
            spec.key: np.empty(spec.shape, dtype=np.dtype(spec.dtype))
            for spec in bundle.arrays
        }, None
    seg = shared_memory.SharedMemory(name=bundle.segment, create=False)
    _untrack(seg)
    out: Dict[str, np.ndarray] = {}
    for spec in bundle.arrays:
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=seg.buf, offset=spec.offset,
        )
        if copy:
            out[spec.key] = view.copy()
        else:
            view.flags.writeable = False
            out[spec.key] = view
    if copy:
        seg.close()
        return out, None
    return out, seg


class ShmArena:
    """Parent-side lease manager for one request's segments.

    Names are reserved *before* the producing worker task is dispatched
    (:meth:`reserve`), sized when the producer reports back
    (:meth:`lease`), and unlinked exactly once — :meth:`release` per
    bundle on the normal path, :meth:`release_all` on cancellation,
    failure or worker death.  Unlinking a name whose segment was never
    created (the producer died first) is a no-op by design.
    """

    def __init__(self, prefix: str) -> None:
        # Segment names are a shared OS namespace: scope them by pid so
        # two services on one host can never collide.
        self.prefix = f"{prefix}-{os.getpid()}"
        self._lock = threading.Lock()
        self._leases: Dict[str, int] = {}
        self._released = False

    def reserve(self, tag: str) -> str:
        """Reserve (and return) the segment name for ``tag``."""
        name = f"{self.prefix}-{tag}"
        with self._lock:
            if self._released:
                raise RuntimeError("arena already released")
            self._leases.setdefault(name, 0)
        return name

    def lease(self, bundle: ArrayBundle) -> None:
        """Record the realized size of a reserved segment."""
        if not bundle.segment:
            return
        with self._lock:
            prev = self._leases.get(bundle.segment, 0)
            self._leases[bundle.segment] = bundle.nbytes
        if bundle.nbytes != prev:
            _account(bundle.nbytes - prev)

    def read(self, bundle: ArrayBundle) -> Dict[str, np.ndarray]:
        """Materialize a bundle's arrays as parent-owned copies."""
        arrays, _ = map_arrays(bundle, copy=True)
        return arrays

    def release(self, bundle: Optional[ArrayBundle]) -> None:
        """Unlink one bundle's segment (idempotent, missing-name safe)."""
        if bundle is None or not bundle.segment:
            return
        self._unlink(bundle.segment)

    def release_all(self) -> None:
        """Unlink every leased segment; the arena is dead afterwards."""
        with self._lock:
            names = list(self._leases)
            self._released = True
        for name in names:
            self._unlink(name)

    def _unlink(self, name: str) -> None:
        with self._lock:
            nbytes = self._leases.pop(name, None)
        if nbytes is None:
            return
        if nbytes:
            _account(-nbytes)
        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            return
        # No _untrack here: this attach's registration is cancelled by
        # ``unlink()`` itself — the one stock register/unregister pair
        # that is already balanced.
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # lost a (benign) unlink race
            pass

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return sum(self._leases.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
