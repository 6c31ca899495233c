"""Cartesian process grids (MPI_Cart_create / MPI_Dims_create analogues).

The P2NFFT solver distributes the particle system uniformly among a
Cartesian grid of processes (Sect. II-C of the paper); the "process grid"
initial particle distribution of Fig. 6 uses the same object.  A
:class:`CartGrid` maps ranks to grid coordinates, tabulates the rank a
fixed number of subdomains away from every rank (the neighbors of the
neighborhood communication of Sect. III-B, the targets of the ghost rule),
and computes target ranks from particle positions.  The tables the ghost
rule reads at every placement are built once per grid.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["dims_create", "CartGrid"]


def dims_create(nprocs: int, ndims: int = 3) -> Tuple[int, ...]:
    """Factor ``nprocs`` into ``ndims`` near-equal factors (MPI_Dims_create).

    The returned dims are sorted descending and their product is exactly
    ``nprocs``.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if ndims < 1:
        raise ValueError(f"ndims must be >= 1, got {ndims}")
    dims = [1] * ndims
    remaining = nprocs
    # greedily assign prime factors largest-first to the smallest dim
    factors: List[int] = []
    f = 2
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


class CartGrid:
    """A periodic Cartesian grid of ``nprocs`` ranks over a 3-D box.

    Parameters
    ----------
    nprocs:
        total number of ranks; factored with :func:`dims_create` unless
        ``dims`` is given.
    box:
        edge lengths of the (axis-aligned) system box.
    offset:
        lower corner of the box.
    periodic:
        whether particle coordinates wrap around the box (the paper's
        benchmark system uses periodic boundary conditions).
    """

    def __init__(
        self,
        nprocs: int,
        box: Sequence[float],
        offset: Sequence[float] = (0.0, 0.0, 0.0),
        dims: Sequence[int] | None = None,
        periodic: bool = True,
    ) -> None:
        self.nprocs = int(nprocs)
        self.box = np.asarray(box, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.box.shape != (3,) or self.offset.shape != (3,):
            raise ValueError("box and offset must be 3-vectors")
        if np.any(self.box <= 0):
            raise ValueError(f"box edges must be positive, got {self.box}")
        self.dims = tuple(int(d) for d in (dims if dims is not None else dims_create(nprocs, 3)))
        if math.prod(self.dims) != self.nprocs:
            raise ValueError(f"dims {self.dims} do not multiply to nprocs={self.nprocs}")
        self.periodic = bool(periodic)
        #: subdomain edge lengths
        self.cell = self.box / np.asarray(self.dims, dtype=np.float64)
        #: the rank offset of one step along each axis: a cell's rank is the
        #: sum of its coordinates times these
        self.strides = (self.dims[1] * self.dims[2], self.dims[2], 1)
        #: :meth:`shifted_ranks` tables built so far, by shift
        self._shift_tables: Dict[Tuple[int, int, int], np.ndarray] = {}

    # -- rank <-> coords -----------------------------------------------------

    def coords_of(self, ranks: np.ndarray | int) -> np.ndarray:
        """Grid coordinates of each rank, shape ``(..., 3)``."""
        ranks = np.asarray(ranks, dtype=np.int64)
        coords = np.empty(ranks.shape + (3,), dtype=np.int64)
        for i in range(3):
            coords[..., i] = (ranks // self.strides[i]) % self.dims[i]
        return coords

    def rank_of(self, coords: np.ndarray) -> np.ndarray:
        """Rank of each grid coordinate triple (wrapping if periodic)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[-1] != 3:
            raise ValueError(f"coords must have last dim 3, got {coords.shape}")
        dims = np.asarray(self.dims, dtype=np.int64)
        if self.periodic:
            coords = coords % dims
        else:
            if np.any(coords < 0) or np.any(coords >= dims):
                raise ValueError("coords out of range for non-periodic grid")
        return (
            coords[..., 0] * self.strides[0]
            + coords[..., 1] * self.strides[1]
            + coords[..., 2] * self.strides[2]
        )

    # -- geometry ------------------------------------------------------------

    def cell_of_positions(self, pos: np.ndarray) -> np.ndarray:
        """Grid cell coordinates containing each position, shape ``(n, 3)``.

        Computed one axis at a time: the result is the transpose of a
        ``(3, n)`` array, so ``cells[:, k]`` is a contiguous column.  Only the
        cells outside the grid are wrapped (or clipped)."""
        pos = np.asarray(pos, dtype=np.float64)
        cells = np.empty((3, pos.shape[0]), dtype=np.int64)
        for axis, dim in enumerate(self.dims):
            rel = pos[:, axis] - self.offset[axis]
            rel /= self.cell[axis]
            column = cells[axis]
            column[:] = np.floor(rel, out=rel)
            # negative cells are huge as unsigned: one comparison finds both sides
            outside = np.flatnonzero(column.view(np.uint64) >= dim)
            if not outside.size:
                continue
            if self.periodic:
                column[outside] %= dim
            else:
                column[outside] = np.clip(column[outside], 0, dim - 1)
        return cells.T

    def rank_of_positions(self, pos: np.ndarray) -> np.ndarray:
        """Target rank for each particle position (the P2NFFT distribution
        function: "the target process for each particle is calculated from
        its position")."""
        # the cells are already wrapped (or clipped) into the grid
        return self.cell_of_positions(pos) @ np.asarray(self.strides, dtype=np.int64)

    # -- neighborhoods ---------------------------------------------------------

    def shifted_ranks(self, shift: Sequence[int]) -> np.ndarray:
        """The ``(P,)`` table of the rank ``shift`` subdomains away from
        every rank: entry ``r`` is ``rank_of(coords_of(r) + shift)``, so a
        periodic grid wraps and a non-periodic one rejects a shift off its
        edge."""
        coords = self.coords_of(np.arange(self.nprocs))
        coords += np.asarray(shift, dtype=np.int64)
        return self.rank_of(coords)

    def shift_table(self, shift: Tuple[int, int, int]) -> np.ndarray:
        """:meth:`shifted_ranks` of ``shift``, built on first use and kept,
        read-only, for the grid's life: the ghost rule asks for the same few
        shifts at every placement."""
        table = self._shift_tables.get(shift)
        if table is None:
            table = self._shift_tables[shift] = self.shifted_ranks(shift)
            table.flags.writeable = False
        return table

    def max_neighbor_extent(self) -> float:
        """Smallest subdomain edge — the distance bound under which particle
        movement stays within direct grid neighbors (Sect. III-B heuristic
        for switching the P2NFFT to neighborhood communication)."""
        return float(self.cell.min())

    def __repr__(self) -> str:
        return f"CartGrid(nprocs={self.nprocs}, dims={self.dims}, periodic={self.periodic})"
