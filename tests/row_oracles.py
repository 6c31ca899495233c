"""The full-length row passes that now take their slow path only where a row
needs it, kept as test oracles.

Each body here ran its per-element slow operation over every row: ``np.mod``
on all ``3n`` coordinates of a position update (``wrap_into_box`` stands for
the integrator's ``np.mod(xn, box, out=xn)``) and of the grid placement
(``_cell_columns``), ``(n, 3)`` broadcasting and an integer ``%`` on every
cell (``CartGrid.cell_of_positions``, here ``cell_of_positions``, and
``morton_keys_of_positions``), ``np.linalg.norm(axis=1)`` for the brownian
directions (``_random_directions``, ``_rotate_directions``), the minimum
image on every pair (``pair_displacements``) and a compaction of every pair
block (``_pair_sums``, which brings its ``pair_displacements`` along).  They
are moved here verbatim — ``wrap_into_box`` reports every row as handled,
which is what the full ``np.mod`` did — and ``tests/perf/test_row_oracles.py``
holds the production code to them bit for bit; the ``oracle_kernels`` fixture
(``tests/conftest.py``) swaps them into whole golden trajectories.  Nothing
under ``src/`` imports this module.

One difference is a fix, not an optimization: a position a hair below the
upper box face can round up into cell ``dims``, which wraps to 0, and
``_cell_columns`` below then measures it a box length above that cell's
lower face instead of an ulp below it (the ghost copy to the neighbour
across the face is lost).  The production code differs from it on exactly
those rows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.simmpi.cart import CartGrid
from repro.solvers.common.pairs import _BLOCK
from repro.zorder.morton import _ROW_BLOCK, MAX_BITS_3D, morton_encode3


def used_by(
    solver: str, dynamics: str = "force", compute: str = "full", distribution: str = "random"
) -> set:
    """The oracles of this module a simulation of ``solver`` reaches."""
    used = {"wrap_into_box"}
    if dynamics == "brownian":
        used |= {"_random_directions", "_rotate_directions"}
    if distribution == "grid":
        used.add("cell_of_positions")
    if solver == "fmm":
        used.add("morton_keys_of_positions")
    elif solver in ("ewald", "p2nfft"):
        used |= {"_cell_columns", "cell_of_positions"}
    if compute == "full" and solver != "direct":
        used.add("_pair_sums")
    return used


# -- md/integrator.py ------------------------------------------------------------------


def wrap_into_box(x: np.ndarray, box: np.ndarray) -> List[np.ndarray]:
    """The integrator's wrap: ``np.mod`` of every coordinate."""
    np.mod(x, box, out=x)
    return [np.arange(x.shape[0])] * 3


# -- md/simulation.py: the brownian surrogate ------------------------------------------


def _random_directions(self, n: int) -> np.ndarray:
    v = self._rng.normal(size=(n, 3))
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return v / norm


def _rotate_directions(self, vel: np.ndarray, speed: float) -> np.ndarray:
    """One pass over the velocities of all ranks; the jitter is one draw
    from the application's stream (a ``Generator`` fills in order, so it
    is the draws a rank-by-rank loop would make)."""
    if vel.shape[0] == 0:
        return vel
    v = self._rng.normal(size=vel.shape)
    v *= 0.3
    v += vel / max(speed, 1e-300)
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    v /= norm
    v *= speed
    return v


# -- simmpi/cart.py, solvers/p2nfft/solver.py ------------------------------------------


def cell_of_positions(self, pos: np.ndarray) -> np.ndarray:
    """Grid cell coordinates containing each position, shape ``(n, 3)``."""
    rel = np.asarray(pos, dtype=np.float64) - self.offset
    rel /= self.cell
    cells = np.floor(rel, out=rel).astype(np.int64)
    dims = np.asarray(self.dims, dtype=np.int64)
    if self.periodic:
        cells %= dims
    else:
        np.clip(cells, 0, dims - 1, out=cells)
    return cells


def _cell_columns(grid: CartGrid, pos: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per axis, as contiguous columns: the cell coordinate of every position
    (wrapped into the box) and the position within that cell, in [0, cell)."""
    # a position a hair below the lower face wraps *onto* the box edge in
    # floating point (``np.mod(-1e-18, L) == L``); the edge is the lower face
    w = np.mod(pos - grid.offset, grid.box)
    wrapped = grid.offset + np.where(w < grid.box, w, 0.0)
    cells = grid.cell_of_positions(wrapped)
    cell_k = [np.ascontiguousarray(cells[:, k]) for k in range(3)]
    rel = [wrapped[:, k] - grid.offset[k] - cell_k[k] * grid.cell[k] for k in range(3)]
    return cell_k, rel


# -- zorder/morton.py ------------------------------------------------------------------


def morton_keys_of_positions(
    pos: np.ndarray,
    offset: np.ndarray,
    box: np.ndarray,
    depth: int,
    periodic: bool = True,
) -> np.ndarray:
    """Morton box numbers for particle positions at subdivision ``depth``.

    The system box is divided into ``2**depth`` cells per dimension (the
    FMM's recursive subdivision down to level ``depth``); each particle gets
    the Morton key of the cell it is located in.  Positions outside the box
    wrap (periodic) or clamp (open boundaries), mirroring how the FMM places
    stray particles into boundary boxes.
    """
    if not 0 <= depth <= MAX_BITS_3D:
        raise ValueError(f"depth must be in [0, {MAX_BITS_3D}], got {depth}")
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"pos must have shape (n, 3), got {pos.shape}")
    offset = np.asarray(offset, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    ncells = 1 << depth
    keys = np.empty(pos.shape[0], dtype=np.uint64)
    for start in range(0, pos.shape[0], _ROW_BLOCK):
        rel = (pos[start:start + _ROW_BLOCK] - offset) / box * ncells
        cells = np.floor(rel).astype(np.int64)
        if periodic:
            cells %= ncells
        else:
            np.clip(cells, 0, ncells - 1, out=cells)
        keys[start:start + _ROW_BLOCK] = morton_encode3(cells[:, 0], cells[:, 1], cells[:, 2])
    return keys


# -- solvers/common/pairs.py -----------------------------------------------------------


def pair_displacements(
    tcols: np.ndarray, scols: np.ndarray, ti: np.ndarray, si: np.ndarray, box: Optional[np.ndarray]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Squared lengths and the three columns of ``target - source`` over a
    pair list, minimum image when ``box`` is given.

    Positions come as ``(3, n)`` coordinate rows.  ``r2`` is summed
    ``(dx*dx + dy*dy) + dz*dz`` — the order ``(d*d).sum(axis=1)`` adds a row
    of an ``(npairs, 3)`` array in, which this never builds.
    """
    d = []
    for axis in range(3):
        dx = tcols[axis].take(ti)
        dx -= scols[axis].take(si)
        if box is not None:
            dx -= np.round(dx / box[axis]) * box[axis]
        d.append(dx)
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2], d


def _pair_sums(
    tpos: np.ndarray, spos: np.ndarray, sq: np.ndarray, ti: np.ndarray, si: np.ndarray,
    box: Optional[np.ndarray], cutoff: Optional[float],
    radial: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Sum a radial kernel over a pair list onto the targets.

    ``radial(q, r2)`` returns each pair's potential contribution and the
    factor its displacement is scaled by for the field.  Only pairs with
    ``0 < r2 <= cutoff**2`` reach it: the list is walked in blocks of
    :data:`_BLOCK` and nothing but the accepted rows outlives a block.
    Contributions are added per target in pair order.
    """
    n_targets = tpos.shape[0]
    # no copy for a caller whose (n, 3) array is already stored by columns
    tcols = np.ascontiguousarray(tpos.T)
    scols = np.ascontiguousarray(spos.T)
    kept = []
    # an empty list still takes one (empty) block, so ``kept`` never is
    for start in range(0, max(ti.shape[0], 1), _BLOCK):
        stop = start + _BLOCK
        r2, d = pair_displacements(tcols, scols, ti[start:stop], si[start:stop], box)
        mask = r2 > 0.0
        if cutoff is not None:
            mask &= r2 <= cutoff * cutoff
        keep = np.flatnonzero(mask)
        kept.append((keep + start, r2.take(keep), *(dx.take(keep) for dx in d)))
    rows, r2, *d = (np.concatenate(column) for column in zip(*kept))
    ti = ti.take(rows)
    pot_c, field_s = radial(sq.take(si.take(rows)), r2)
    # written into float arrays: bincount of nothing into no bins is integer
    pot = np.empty(n_targets, dtype=np.float64)
    pot[:] = np.bincount(ti, weights=pot_c, minlength=n_targets)
    field = np.empty((n_targets, 3), dtype=np.float64)
    for axis, dx in enumerate(d):
        field[:, axis] = np.bincount(ti, weights=dx * field_s, minlength=n_targets)
    return pot, field, int(rows.shape[0])
