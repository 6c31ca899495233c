"""Distributed particle data containers.

Three containers cover all data handling in the repo:

* :class:`ColumnBlock` — a structure-of-arrays block: named NumPy columns of
  equal leading dimension (positions ``(n, 3)``, charges ``(n,)``, packed
  64-bit index values ``(n,)``, ...).  All redistribution primitives move
  ``ColumnBlock`` payloads so that the columns of a particle always travel
  together in one message, as the ScaFaCoS implementations do.
* :class:`RankMajor` — *the* representation of distributed per-particle
  data: one flat block (or one flat column) holding the rows of all ranks in
  rank order, plus ``offsets[P + 1]``.  Rank ``r`` owns the rows
  ``offsets[r]:offsets[r + 1]``; nothing per rank is stored.  As a sequence
  it is the derived per-rank *read view* (``len()`` ranks, ``[r]`` and
  iteration give zero-copy views) that the public boundary, the near-field
  kernels, the tests and the examples index.
* :class:`ParticleSet` — the application-facing distributed particle system:
  one ``RankMajor`` store of ``pos``/``q``/``pot``/``field`` plus the
  per-rank *capacity* (the "maximum number of particles that can be stored
  in the local particle data arrays" passed to ``fcs_run``), which gates
  whether method B may return a changed distribution (Sect. III-B: if any
  rank's arrays are too small the original distribution must be restored).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = ["ColumnBlock", "ParticleSet", "RankMajor", "column_view"]

FLOAT = np.float64
INT = np.int64


class ColumnBlock:
    """Named equal-length NumPy columns for one rank's particles."""

    __slots__ = ("_cols", "_n")

    def __init__(self, **columns: np.ndarray) -> None:
        self._cols: Dict[str, np.ndarray] = {}
        self._n: Optional[int] = None
        for name, arr in columns.items():
            self[name] = arr

    # -- mapping interface ----------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._cols[name]

    def __setitem__(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if self._n is None:
            self._n = arr.shape[0] if arr.ndim else int(arr)
        if arr.ndim == 0 or arr.shape[0] != self._n:
            raise ValueError(
                f"column {name!r} has leading dim {arr.shape[:1]}, block has n={self._n}"
            )
        self._cols[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __iter__(self) -> Iterator[str]:
        return iter(self._cols)

    def names(self) -> List[str]:
        return list(self._cols)

    @property
    def n(self) -> int:
        """Number of particles in the block."""
        return 0 if self._n is None else self._n

    @property
    def nbytes(self) -> int:
        """Total payload bytes (what a message carrying the block costs)."""
        return sum(a.nbytes for a in self._cols.values())

    @property
    def row_nbytes(self) -> int:
        """Bytes one row occupies across all columns."""
        return sum(a.dtype.itemsize * int(np.prod(a.shape[1:])) for a in self._cols.values())

    # -- construction ----------------------------------------------------------

    @classmethod
    def concat(cls, blocks: Sequence["ColumnBlock"]) -> "ColumnBlock":
        """Concatenate blocks with identical column sets (order preserved)."""
        blocks = [b for b in blocks]
        if not blocks:
            raise ValueError("cannot concat zero blocks")
        names = blocks[0].names()
        for b in blocks[1:]:
            if b.names() != names:
                raise ValueError(f"column mismatch: {names} vs {b.names()}")
        out = cls()
        out._n = sum(b.n for b in blocks)
        for name in names:
            out._cols[name] = np.concatenate([b._cols[name] for b in blocks])
        return out

    # -- transforms -------------------------------------------------------------

    def take(self, idx: np.ndarray) -> "ColumnBlock":
        """Select rows by index array (copy)."""
        idx = np.asarray(idx)
        out = ColumnBlock()
        out._n = int(idx.shape[0])
        for name, arr in self._cols.items():
            # several times faster than arr[idx] on multi-dimensional rows
            out._cols[name] = np.take(arr, idx, axis=0)
        return out

    def row_slice(self, start: int, end: int) -> "ColumnBlock":
        """Contiguous row range as a zero-copy view block."""
        out = ColumnBlock()
        out._n = int(end - start)
        for name, arr in self._cols.items():
            out._cols[name] = arr[start:end]
        return out

    def copy(self) -> "ColumnBlock":
        out = ColumnBlock()
        out._n = self._n
        for name, arr in self._cols.items():
            out._cols[name] = arr.copy()
        return out

    def drop(self, *names: str) -> "ColumnBlock":
        """A view-block without the given columns."""
        out = ColumnBlock()
        out._n = self._n
        for name, arr in self._cols.items():
            if name not in names:
                out._cols[name] = arr
        return out

    def payload(self) -> tuple:
        """The tuple-of-arrays payload handed to communication primitives."""
        return tuple(self._cols.values())

    def __repr__(self) -> str:
        cols = ", ".join(f"{k}:{v.dtype}{v.shape[1:]}" for k, v in self._cols.items())
        return f"ColumnBlock(n={self.n}, {cols})"


class RankMajor(SequenceABC):
    """Rank-major flat data: ``data`` holds the rows of all ranks in rank
    order — one :class:`ColumnBlock`, or one column array — and rank ``r``
    owns the rows ``offsets[r]:offsets[r + 1]``.

    This is what every layer from the application down to the exchange
    engine takes and returns.  The sequence interface is a read view derived
    from it: ``len()`` is the rank count, ``view[r]`` and iteration cut
    zero-copy per-rank views (writing *through* one writes the store;
    ``view[r] = x`` does not exist).
    """

    __slots__ = ("data", "offsets")

    def __init__(self, data: Union[ColumnBlock, np.ndarray], offsets: np.ndarray) -> None:
        self.data = data
        self.offsets = offsets

    @classmethod
    def of(cls, parts: Union["RankMajor", Sequence]) -> "RankMajor":
        """Normalise at entry: a ``RankMajor`` is returned as it is; a
        per-rank sequence (one array or one :class:`ColumnBlock` per rank,
        what a caller outside the library holds) is concatenated once.

        Blocks must carry the same columns, dtypes and trailing shapes: the
        rows of different ranks end up in one buffer, and what an exchange
        charges is what the senders' columns weigh.
        """
        if isinstance(parts, RankMajor):
            return parts
        parts = list(parts)
        if parts and isinstance(parts[0], ColumnBlock):
            template = parts[0]
            layout = [(arr.dtype, arr.shape[1:]) for arr in template.payload()]
            for rank, block in enumerate(parts):
                if block.names() != template.names():
                    raise ValueError(f"column mismatch: {template.names()} vs {block.names()}")
                for name, arr, (dtype, trailing) in zip(block.names(), block.payload(), layout):
                    if (arr.dtype, arr.shape[1:]) != (dtype, trailing):
                        raise ValueError(
                            f"rank {rank}: column {name!r} is {arr.dtype}{arr.shape[1:]}, "
                            f"rank 0 has {dtype}{trailing}"
                        )
            sizes = [block.n for block in parts]
            data = ColumnBlock.concat(parts)
        else:
            parts = [np.asarray(part) for part in parts]
            sizes = [part.shape[0] for part in parts]
            data = np.concatenate(parts) if parts else np.empty(0)
        return cls(data, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))))

    @classmethod
    def of_columns(cls, columns: Mapping[str, Union["RankMajor", Sequence]]) -> "RankMajor":
        """Named columns as one rank-major block.  All columns must be cut
        the same way: the first one's counts are everyone's, else one
        ``ValueError`` names the column and the first rank that differs."""
        stores = {name: cls.of(column) for name, column in columns.items()}
        first = next(iter(stores.values()))
        for name, store in stores.items():
            if len(store) != len(first):
                raise ValueError(
                    f"column {name!r}: {len(store)} ranks, the other columns have {len(first)}"
                )
            r = store.first_ragged(first.offsets)
            if r is not None:
                raise ValueError(
                    f"column {name!r}, rank {r}: {int(store.counts[r])} rows, "
                    f"the other columns hold {int(first.counts[r])}"
                )
        block = ColumnBlock(**{name: store.data for name, store in stores.items()})
        return cls(block, first.offsets)

    @property
    def counts(self) -> np.ndarray:
        """Rows per rank."""
        return np.diff(self.offsets)

    def first_ragged(self, offsets: np.ndarray) -> Optional[int]:
        """The first rank that ``offsets`` cuts differently, if any."""
        differs = np.flatnonzero(self.offsets != offsets)
        return int(differs[0]) - 1 if differs.size else None

    def column(self, name: str) -> "RankMajor":
        """One column of a block store, over the same offsets."""
        return RankMajor(self.data[name], self.offsets)

    # -- the derived per-rank read view ------------------------------------------

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def _cut(self, start: int, end: int):
        data = self.data
        return data.row_slice(start, end) if isinstance(data, ColumnBlock) else data[start:end]

    def __getitem__(self, rank):
        ranks = range(len(self))[rank]  # negative ranks, slices, IndexError: as any sequence
        if isinstance(ranks, range):
            return [self[r] for r in ranks]
        return self._cut(int(self.offsets[ranks]), int(self.offsets[ranks + 1]))

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(self._cut, bounds[:-1], bounds[1:])

    def __repr__(self) -> str:
        return f"RankMajor(nprocs={len(self)}, rows={int(self.offsets[-1])}, data={self.data!r})"


def column_view(name: str) -> property:
    """One column of an owner's ``store`` (a :class:`RankMajor` block) as an
    attribute: reading cuts the per-rank read view; assigning a column —
    rank-major, or one array per rank — over the same counts replaces it."""

    def get(self) -> RankMajor:
        return self.store.column(name)

    def put(self, column) -> None:
        column = RankMajor.of(column)
        if not np.array_equal(column.offsets, self.store.offsets):
            raise ValueError(f"{name}: per-rank row counts differ from the store's")
        self.store.data[name] = column.data

    return property(get, put)


class ParticleSet:
    """The application's distributed particle system.

    Stored: one rank-major :class:`ColumnBlock` — positions ``pos`` ``(n,
    3)``, charges ``q`` ``(n,)`` and the potentials ``pot`` ``(n,)`` and
    fields ``field`` ``(n, 3)`` solvers write back — with one ``offsets``
    vector, plus a capacity ``max_local_particles`` per rank (defaults to a
    uniform slack factor over the initial counts).  ``block`` and
    ``offsets`` are the store; a column is written with ``block[name] =
    flat`` (same rows) and a new layout adopted with :meth:`install`.

    Views: ``pos``, ``q``, ``pot`` and ``field`` are per-rank read views
    (:class:`RankMajor`) cut from the store on access — ``particles.q[r]``
    is a zero-copy view, so ``particles.q[r][:] = x`` writes the store,
    while ``particles.q[r] = x`` is not supported; assigning a whole column
    (``particles.pos = columns``) replaces it over the same counts.
    Per-rank lists handed in are concatenated once, at entry.
    """

    def __init__(
        self,
        positions: Union[RankMajor, Sequence[np.ndarray]],
        charges: Union[RankMajor, Sequence[np.ndarray]],
        capacities: Optional[Sequence[int]] = None,
        capacity_factor: float = 2.0,
    ) -> None:
        if len(positions) != len(charges):
            raise ValueError("positions and charges must have one entry per rank")
        positions, charges = RankMajor.of(positions), RankMajor.of(charges)
        if not np.array_equal(charges.offsets, positions.offsets):
            raise ValueError("positions and charges must hold the same rows on every rank")
        self.nprocs = len(positions)
        n = int(positions.offsets[-1])
        if capacities is None:
            # uniform capacity with slack, at least enough for a balanced
            # distribution of the whole system plus imbalance headroom
            per_rank = max(1, -(-n // max(self.nprocs, 1)))
            self.capacities = np.maximum(int(np.ceil(capacity_factor * per_rank)), positions.counts)
        else:
            if len(capacities) != self.nprocs:
                raise ValueError("capacities must have one entry per rank")
            self.capacities = np.asarray(capacities, dtype=INT)
        self.install(
            ColumnBlock(pos=positions.data, q=charges.data, pot=np.zeros(n), field=np.zeros((n, 3))),
            positions.offsets,
        )

    pos = column_view("pos")
    q = column_view("q")
    pot = column_view("pot")
    field = column_view("field")

    @property
    def store(self) -> RankMajor:
        """The whole store as ``(block, offsets)``."""
        return RankMajor(self.block, self.offsets)

    # -- counts -----------------------------------------------------------------

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def total(self) -> int:
        return self.block.n

    # -- whole-system copies (testing / observables) --------------------------------


    def gather_charges(self) -> np.ndarray:
        return self.block["q"].copy()

    def gather_potentials(self) -> np.ndarray:
        return self.block["pot"].copy()

    # -- updates ----------------------------------------------------------------

    def install(self, block: ColumnBlock, offsets: np.ndarray) -> None:
        """Adopt a layout (the constructor's, or a solver's under method B):
        ``block`` holds the four columns rank-major, ``offsets`` cuts it.  The
        one place a layout enters the store: a rank over its capacity or a
        malformed block raises ``ValueError`` before anything is replaced."""
        offsets, n = np.asarray(offsets, dtype=INT), block.n
        layout = {"pos": (n, 3), "q": (n,), "pot": (n,), "field": (n, 3)}
        if (
            block.names() != list(layout)
            or any(np.shape(block[name]) != shape for name, shape in layout.items())
            or offsets.shape != (self.nprocs + 1,) or offsets[0] != 0 or offsets[-1] != n
        ):
            raise ValueError(
                f"a layout is pos (n, 3), q (n,), pot (n,), field (n, 3) cut by "
                f"{self.nprocs + 1} offsets; inconsistent local array lengths"
            )
        over = np.diff(offsets) > self.capacities
        if over.any():
            r = int(np.argmax(over))
            raise ValueError(
                f"rank {r}: capacity {int(self.capacities[r])} < local count "
                f"{int(offsets[r + 1] - offsets[r])}"
            )
        self.block = ColumnBlock(
            **{name: np.ascontiguousarray(block[name], dtype=FLOAT) for name in layout}
        )
        self.offsets = offsets

    def fits(self, counts: Iterable[int]) -> bool:
        """Would per-rank particle counts ``counts`` fit the local arrays?

        This is the method-B gate of Sect. III-B: "the redistributed
        particles of a solver can only be returned to the calling application
        if the given local particle data arrays are large enough".
        """
        return bool(np.all(np.asarray(counts) <= self.capacities))

    def __repr__(self) -> str:
        return (
            f"ParticleSet(nprocs={self.nprocs}, total={self.total()}, "
            f"counts={self.counts().tolist() if self.nprocs <= 16 else '...'})"
        )
