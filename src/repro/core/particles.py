"""Distributed particle data containers.

Two containers cover all data handling in the repo:

* :class:`ColumnBlock` — one rank's structure-of-arrays block: named NumPy
  columns of equal leading dimension (positions ``(n, 3)``, charges ``(n,)``,
  packed 64-bit index values ``(n,)``, ...).  All redistribution primitives
  move ``ColumnBlock`` payloads so that the columns of a particle always
  travel together in one message, as the ScaFaCoS implementations do.
* :class:`ParticleSet` — the application-facing distributed particle system:
  per-rank ``ColumnBlock`` s plus the per-rank *capacity* (the "maximum
  number of particles that can be stored in the local particle data arrays"
  passed to ``fcs_run``), which gates whether method B may return a changed
  distribution (Sect. III-B: if any rank's arrays are too small the original
  distribution must be restored).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["ColumnBlock", "ParticleSet"]

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
    def empty_like(cls, template: "ColumnBlock", n: int = 0) -> "ColumnBlock":
        """A block with the same columns/dtypes as ``template`` and ``n`` rows."""
        out = cls()
        out._n = n
        for name, arr in template._cols.items():
            out._cols[name] = np.empty((n,) + arr.shape[1:], dtype=arr.dtype)
        return out

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

    def permute_inplace(self, perm: np.ndarray) -> None:
        """Reorder rows so new[i] = old[perm[i]] for every column."""
        perm = np.asarray(perm)
        if perm.shape != (self.n,):
            raise ValueError(f"perm has shape {perm.shape}, block has n={self.n}")
        for name, arr in self._cols.items():
            self._cols[name] = arr[perm]

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


class ParticleSet:
    """The application's distributed particle system.

    Per rank: positions ``(n_i, 3)``, charges ``(n_i,)`` and a capacity
    ``max_local_particles`` (defaults to a uniform slack factor over the
    initial counts).  Solvers write calculated potentials ``(n_i,)`` and
    fields ``(n_i, 3)`` back into the set.
    """

    def __init__(
        self,
        positions: Sequence[np.ndarray],
        charges: Sequence[np.ndarray],
        capacities: Optional[Sequence[int]] = None,
        capacity_factor: float = 2.0,
    ) -> None:
        if len(positions) != len(charges):
            raise ValueError("positions and charges must have one entry per rank")
        self.nprocs = len(positions)
        self.pos: List[np.ndarray] = []
        self.q: List[np.ndarray] = []
        for r, (p, c) in enumerate(zip(positions, charges)):
            p = np.ascontiguousarray(p, dtype=FLOAT)
            c = np.ascontiguousarray(c, dtype=FLOAT)
            if p.ndim != 2 or p.shape[1] != 3:
                raise ValueError(f"rank {r}: positions must be (n, 3), got {p.shape}")
            if c.shape != (p.shape[0],):
                raise ValueError(f"rank {r}: charges must be (n,), got {c.shape}")
            self.pos.append(p)
            self.q.append(c)
        n_total = self.total()
        if capacities is None:
            # uniform capacity with slack, at least enough for a balanced
            # distribution of the whole system plus imbalance headroom
            per_rank = max(1, -(-n_total // max(self.nprocs, 1)))
            cap = int(np.ceil(capacity_factor * per_rank))
            self.capacities = [max(cap, p.shape[0]) for p in self.pos]
        else:
            if len(capacities) != self.nprocs:
                raise ValueError("capacities must have one entry per rank")
            self.capacities = [int(c) for c in capacities]
            for r in range(self.nprocs):
                if self.capacities[r] < self.pos[r].shape[0]:
                    raise ValueError(
                        f"rank {r}: capacity {self.capacities[r]} < local count {self.pos[r].shape[0]}"
                    )
        self.pot: List[np.ndarray] = [np.zeros(p.shape[0], dtype=FLOAT) for p in self.pos]
        self.field: List[np.ndarray] = [np.zeros_like(p) for p in self.pos]

    # -- counts -----------------------------------------------------------------

    def counts(self) -> np.ndarray:
        return np.asarray([p.shape[0] for p in self.pos], dtype=INT)

    def total(self) -> int:
        return int(sum(p.shape[0] for p in self.pos))

    def nlocal(self, rank: int) -> int:
        return self.pos[rank].shape[0]

    # -- whole-system views (testing / observables) --------------------------------

    def gather_positions(self) -> np.ndarray:
        """All positions concatenated rank-major (no communication cost —
        an out-of-band observer view for tests and observables)."""
        return np.concatenate(self.pos) if self.pos else np.empty((0, 3))

    def gather_charges(self) -> np.ndarray:
        return np.concatenate(self.q) if self.q else np.empty(0)

    def gather_potentials(self) -> np.ndarray:
        return np.concatenate(self.pot) if self.pot else np.empty(0)

    def gather_fields(self) -> np.ndarray:
        return np.concatenate(self.field) if self.field else np.empty((0, 3))

    # -- updates ----------------------------------------------------------------

    def replace(
        self,
        rank: int,
        pos: np.ndarray,
        q: np.ndarray,
        pot: np.ndarray,
        field: np.ndarray,
    ) -> None:
        """Install a rank's new local particles (solver output, method B)."""
        n = pos.shape[0]
        if not (q.shape[0] == pot.shape[0] == field.shape[0] == n):
            raise ValueError("inconsistent local array lengths")
        self.pos[rank] = np.ascontiguousarray(pos, dtype=FLOAT)
        self.q[rank] = np.ascontiguousarray(q, dtype=FLOAT)
        self.pot[rank] = np.ascontiguousarray(pot, dtype=FLOAT)
        self.field[rank] = np.ascontiguousarray(field, dtype=FLOAT)

    def fits(self, counts: Iterable[int]) -> bool:
        """Would per-rank particle counts ``counts`` fit the local arrays?

        This is the method-B gate of Sect. III-B: "the redistributed
        particles of a solver can only be returned to the calling application
        if the given local particle data arrays are large enough".
        """
        return all(int(c) <= cap for c, cap in zip(counts, self.capacities))

    def __repr__(self) -> str:
        return (
            f"ParticleSet(nprocs={self.nprocs}, total={self.total()}, "
            f"counts={self.counts().tolist() if self.nprocs <= 16 else '...'})"
        )
