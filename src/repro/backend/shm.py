"""Shared-memory payload codec for the process execution backend.

The transport contract of :mod:`repro.simmpi` is structure-of-arrays: a
*payload* is an ``ndarray`` or a tuple/list of ndarray columns that travel
together in one message.  This module turns arbitrary mixed-dtype payload
sets into one contiguous byte arena (backed by
:class:`multiprocessing.shared_memory.SharedMemory`) and back, **byte for
byte**:

* every column is serialized as its C-contiguous buffer at an aligned
  offset; dtype and shape travel out-of-band in a :class:`ColumnMeta`
  (control metadata goes over the worker pipes, only bulk bytes live in
  the arena),
* offsets and totals are computed in plain Python integers
  (:func:`arena_layout`), so arenas beyond 2 GiB cannot overflow any
  intermediate — the property suite checks the arithmetic with synthetic
  sizes far above ``INT32_MAX`` without allocating,
* decoding reconstructs dtype (including structured dtypes via the numpy
  descr), shape and container kind (bare array vs tuple vs list) exactly.

Arena layout (one exchange)::

    SharedMemory "repro-shm-<pid>-<seq>"
    +------------+---- pad to 16 ----+------------+---- ... ----+
    | column 0   |                   | column 1   |             |
    | raw bytes  |                   | raw bytes  |             |
    +------------+-------------------+------------+-------------+
    ^ offset 0                       ^ ColumnMeta.offset

Every :class:`ShmArena` created by this process is tracked in a registry so
test teardown can assert that no segment leaked
(:func:`live_segments`).
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ALIGNMENT",
    "ColumnMeta",
    "PayloadSpec",
    "ShmArena",
    "arena_layout",
    "place_columns",
    "column_view",
    "encode_payloads",
    "decode_payload",
    "live_segments",
]

#: every column starts on a 16-byte boundary (safe for any numpy itemsize)
ALIGNMENT = 16

_KINDS = ("array", "tuple", "list", "none", "pickle")


@dataclasses.dataclass(frozen=True)
class ColumnMeta:
    """Location and type of one serialized column inside an arena."""

    descr: object  # numpy dtype descr (str, or list for structured dtypes)
    shape: Tuple[int, ...]
    offset: int
    nbytes: int


@dataclasses.dataclass(frozen=True)
class PayloadSpec:
    """One payload's container kind plus its column metas."""

    kind: str  # "array" | "tuple" | "list" | "none"
    columns: Tuple[ColumnMeta, ...]

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns)


def _align(offset: int) -> int:
    """Next ``ALIGNMENT``-multiple at or after ``offset`` (plain ints)."""
    offset = int(offset)
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def arena_layout(sizes: Sequence[int]) -> Tuple[List[int], int]:
    """Aligned offsets for blocks of the given byte sizes, plus the total.

    Pure Python-int arithmetic: safe for totals beyond 2 GiB (and beyond
    64-bit — ints don't wrap), which is what the synthetic-size property
    tests pin down.
    """
    offsets: List[int] = []
    cursor = 0
    for size in sizes:
        size = int(size)
        if size < 0:
            raise ValueError(f"negative block size {size}")
        cursor = _align(cursor)
        offsets.append(cursor)
        cursor += size
    return offsets, cursor


def place_columns(
    specs: Sequence[Tuple[np.dtype, Sequence[int]]]
) -> Tuple[List[ColumnMeta], int]:
    """Aligned arena placement of C-contiguous columns given as ``(dtype,
    shape)`` pairs, plus the arena size (plain-int arithmetic throughout).
    An object dtype has no raw bytes to place: ``TypeError``."""
    for dtype, _shape in specs:
        _check_dtype(dtype)
    shapes = [tuple(int(d) for d in shape) for _dtype, shape in specs]
    sizes = [int(dtype.itemsize) * math.prod(shape) for (dtype, _), shape in zip(specs, shapes)]
    offsets, total = arena_layout(sizes)
    metas = [
        ColumnMeta(np.lib.format.dtype_to_descr(dtype), shape, offset, nbytes)
        for (dtype, _), shape, offset, nbytes in zip(specs, shapes, offsets, sizes)
    ]
    return metas, total


def column_view(buf: memoryview, meta: ColumnMeta) -> np.ndarray:
    """The column ``meta`` places, as an array over the arena's own bytes.

    No copy is made, and the view pins the mapping: drop it (or ``copy()``
    out of it) before the arena is detached or released.
    """
    return np.ndarray(meta.shape, dtype=np.dtype(meta.descr), buffer=buf, offset=meta.offset)


def _columns_of(payload) -> Tuple[str, List[np.ndarray]]:
    """Split a payload into (container kind, list of ndarray columns)."""
    if payload is None:
        return "none", []
    if isinstance(payload, np.ndarray):
        return "array", [payload]
    if isinstance(payload, (tuple, list)):
        kind = "tuple" if isinstance(payload, tuple) else "list"
        if not all(isinstance(c, np.ndarray) for c in payload):
            raise TypeError(
                f"{kind} payloads must contain only ndarrays to travel as "
                f"raw columns"
            )
        return kind, list(payload)
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def _check_dtype(dtype: np.dtype) -> None:
    if dtype.hasobject:
        raise TypeError(
            f"object-dtype arrays cannot travel through shared memory "
            f"(got dtype {dtype!r})"
        )


def encode_payloads(
    payloads: Sequence[object], *, allow_pickle: bool = False
) -> Tuple[List[PayloadSpec], int, List[np.ndarray]]:
    """Plan the arena for a batch of payloads.

    Returns ``(specs, total_bytes, flat_columns)`` where ``specs[i]``
    describes ``payloads[i]`` and ``flat_columns`` lists every column in
    arena order (what :func:`write_columns` will copy in).

    With ``allow_pickle=True`` a payload that is not array-structured (the
    SPMD mailboxes carry arbitrary Python objects) is shipped as one pickled
    byte column instead of being rejected.  The structured transports
    (alltoallv / p2p) keep the strict default so exotic payloads fail loudly
    rather than silently taking the slow path.
    """
    kinds: List[str] = []
    all_columns: List[List[np.ndarray]] = []
    flat: List[np.ndarray] = []
    for payload in payloads:
        try:
            kind, cols = _columns_of(payload)
            cols = [np.ascontiguousarray(c) for c in cols]
            for c in cols:
                _check_dtype(c.dtype)
        except TypeError:
            if not allow_pickle:
                raise
            kind = "pickle"
            cols = [np.frombuffer(pickle.dumps(payload), dtype=np.uint8)]
        kinds.append(kind)
        all_columns.append(cols)
        flat.extend(cols)
    metas, total = place_columns([(c.dtype, c.shape) for c in flat])
    placed = iter(metas)
    specs = [
        PayloadSpec(kind=kind, columns=tuple(next(placed) for _ in cols))
        for kind, cols in zip(kinds, all_columns)
    ]
    return specs, total, flat


def write_columns(buf: memoryview, specs: Sequence[PayloadSpec], flat: Sequence[np.ndarray]) -> int:
    """Copy every column's bytes into the arena buffer; returns bytes written."""
    for meta, arr in zip((meta for spec in specs for meta in spec.columns), flat):
        column_view(buf, meta)[...] = arr
    return sum(spec.nbytes for spec in specs)


def decode_payload(buf: memoryview, spec: PayloadSpec):
    """Rebuild one payload (fresh arrays, container kind preserved)."""
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown payload kind {spec.kind!r}")
    if spec.kind == "none":
        return None
    if spec.kind == "pickle":
        meta = spec.columns[0]
        return pickle.loads(bytes(buf[meta.offset : meta.offset + meta.nbytes]))
    columns = [column_view(buf, meta).copy() for meta in spec.columns]
    if spec.kind == "array":
        return columns[0]
    if spec.kind == "tuple":
        return tuple(columns)
    return columns


# ---------------------------------------------------------------------- arena


_live_lock = threading.Lock()
_live: Dict[str, "ShmArena"] = {}
_seq = 0


def live_segments() -> List[str]:
    """Names of shared-memory segments created by this process and not yet
    released — the leak assertion of the backend test fixtures."""
    with _live_lock:
        return sorted(_live)


def _next_name() -> str:
    global _seq
    with _live_lock:
        _seq += 1
        return f"repro-shm-{os.getpid()}-{_seq}"


class ShmArena:
    """A created-or-attached shared-memory segment with tracked lifetime.

    The creator calls :meth:`release` (close + unlink); attachers call
    :meth:`detach` (close only).  Both are idempotent, so error paths can
    release unconditionally in ``finally`` blocks.
    """

    def __init__(self, size: int, *, name: Optional[str] = None, create: bool = True) -> None:
        if create:
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(int(size), 1), name=name or _next_name()
            )
            self.created = True
            with _live_lock:
                _live[self.shm.name] = self
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            self.created = False
        self._open = True

    @classmethod
    def attach(cls, name: str) -> "ShmArena":
        return cls(0, name=name, create=False)

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self) -> memoryview:
        return self.shm.buf

    def detach(self) -> None:
        """Close this process's mapping (attachers; idempotent)."""
        if not self._open:
            return
        self._open = False
        self.shm.close()

    def release(self) -> None:
        """Close and unlink (creators; idempotent)."""
        if not self._open:
            return
        self._open = False
        self.shm.close()
        if self.created:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _live_lock:
                _live.pop(self.shm.name, None)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release() if self.created else self.detach()
