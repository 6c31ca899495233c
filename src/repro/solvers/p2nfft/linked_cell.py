"""Linked-cell real-space near field for the Ewald splitting.

"The calculations of the real space part require to consider all pairs of
particles that are located within a given cutoff radius to each other.
These computations are performed with a linked cell algorithm that sorts
all particles into boxes of size of the cutoff radius" (Sect. II-C).

Each rank computes the ``erfc(alpha r)/r`` contributions of its *owned*
particles (targets) against owned + ghost particles (sources).  Cells are
laid over the whole periodic box so cell coordinates are globally
consistent; pair displacements use the minimum image convention (valid for
``rc <= L/2``), so ghost copies do not need position shifting.

The unit of work is a *run*: one target against one neighbour cell's sorted
sources.  Before any pair is formed, :meth:`LinkedCellNearField.compute`
drops every run whose lower bound on ``r2`` — from the source cell's member
extents, in the kernel's own arithmetic
(:func:`~repro.solvers.common.pairs.pair_distance_bounds`) — exceeds
``rc**2``: none of its pairs could pass the kernel's cutoff test.  The
surviving runs' pairs keep their per-target order (offset-major, then
source order) into the kernel.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.fine_grained import stable_order
from repro.solvers.common.pairs import erfc_pairs, pair_distance_bounds, ragged_cross

__all__ = ["LinkedCellNearField"]

#: pairs per kernel call of :meth:`LinkedCellNearField.compute`: one call's
#: index arrays stay cache-resident
_PAIRS_PER_CALL = 32768

_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


class LinkedCellNearField:
    """Reusable cell geometry for a fixed box and cutoff."""

    def __init__(
        self,
        box: np.ndarray,
        offset: np.ndarray,
        rc: float,
        alpha: float,
    ) -> None:
        self.box = np.asarray(box, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        if rc <= 0 or rc > 0.5 * float(self.box.min()):
            raise ValueError(f"cutoff must be in (0, L/2], got {rc}")
        self.rc = float(rc)
        self.alpha = float(alpha)
        #: cells per dimension (cell edge >= rc)
        self.dims = np.maximum((self.box / self.rc).astype(np.int64), 1)
        self.cell = self.box / self.dims
        #: True when wrapped neighbor cells can coincide (tiny test boxes)
        self.needs_dedup = bool((self.dims < 3).any())

    def cell_ids(self, pos: np.ndarray) -> np.ndarray:
        """Global linear cell id of each position."""
        c = np.floor((pos - self.offset) / self.cell).astype(np.int64)
        c %= self.dims
        return (c[:, 0] * self.dims[1] + c[:, 1]) * self.dims[2] + c[:, 2]

    def _neighbour_segments(
        self, s_sorted: np.ndarray, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The neighbour cell of every (offset, occupied target cell) and its
        ``[start, end)`` segment of the sorted sources, each ``(27, ncells)``."""
        nx = (cx[None, :] + _OFFSETS[:, 0:1]) % self.dims[0]
        ny = (cy[None, :] + _OFFSETS[:, 1:2]) % self.dims[1]
        nz = (cz[None, :] + _OFFSETS[:, 2:3]) % self.dims[2]
        ncell = (nx * self.dims[1] + ny) * self.dims[2] + nz
        s_start = np.searchsorted(s_sorted, ncell, side="left")
        s_end = np.searchsorted(s_sorted, ncell, side="right")
        return ncell, s_start, s_end

    def _dedup(
        self, ti: np.ndarray, si: np.ndarray, n_sources: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.needs_dedup and ti.size:
            # wrapped neighbor cells can coincide for dims < 3: keep each
            # (target, source) pair once (min-image picks the one image
            # within rc, unique for rc <= L/2)
            key = ti * np.int64(n_sources) + si
            _, keep = np.unique(key, return_index=True)
            ti = ti[keep]
            si = si[keep]
        return ti, si

    def reachable_runs(
        self,
        tpos: np.ndarray,
        spos: np.ndarray,
        s_sorted: np.ndarray,
        t_cell: np.ndarray,
        cells: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The runs the cutoff can reach: ``(targets, first, lengths)``.

        Targets and sources are sorted by cell (``s_sorted``); ``t_cell``
        indexes each target's cell in the occupied target ``cells``.  There
        is one run per (target, offset) with sources, target-major, each
        target's offset-major.  A run goes when :func:`pair_distance_bounds`
        on its source cell's member extents exceeds ``rc**2``: each of its
        pairs would fail the kernel's ``r2 <= rc**2`` bit for bit.
        """
        cz = cells % self.dims[2]
        cy = (cells // self.dims[2]) % self.dims[1]
        cx = cells // (self.dims[1] * self.dims[2])
        ncell, s_start, s_end = self._neighbour_segments(s_sorted, cx, cy, cz)
        # the occupied source cells and their members' extents per axis
        s_cells, s_first = np.unique(s_sorted, return_index=True)
        scols = np.ascontiguousarray(spos.T)
        lo = np.minimum.reduceat(scols, s_first, axis=1)
        hi = np.maximum.reduceat(scols, s_first, axis=1)
        # (target, offset) tables, target-major; the runs with sources
        lengths = (s_end - s_start).T[t_cell].ravel()
        live = np.flatnonzero(lengths)
        targets = live // 27
        first = s_start.T[t_cell].ravel().take(live)
        source_cell = np.searchsorted(s_cells, ncell).T[t_cell].ravel().take(live)
        bound = pair_distance_bounds(
            np.ascontiguousarray(tpos.T), lo, hi, targets, source_cell, self.box
        )
        reach = np.flatnonzero(~(bound > self.rc * self.rc))
        return targets.take(reach), first.take(reach), lengths.take(live).take(reach)

    def compute(
        self,
        tpos: np.ndarray,
        spos: np.ndarray,
        sq: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Near-field potentials/fields of targets against sources.

        Returns ``(pot, field, pair_count)`` aligned with ``tpos`` (input
        order).  ``pair_count`` is the number of kernel evaluations — the
        workload figure the performance model charges.

        The reachable runs are expanded to pairs and summed whole targets at
        a time, about :data:`_PAIRS_PER_CALL` pairs per kernel call: a
        target's pairs all reach one call, in their order.
        """
        nt = tpos.shape[0]
        pot_s = np.zeros(nt)
        field_s = np.zeros((nt, 3))
        if nt == 0 or spos.shape[0] == 0:
            return pot_s, field_s, 0

        t_cells = self.cell_ids(tpos)
        s_cells = self.cell_ids(spos)
        t_order, s_order = stable_order(t_cells), stable_order(s_cells)
        t_order = np.arange(nt) if t_order is None else t_order
        s_order = np.arange(spos.shape[0]) if s_order is None else s_order
        # stored by columns, the way the kernel reads them: no copy per call
        tpos_s = np.ascontiguousarray(tpos[t_order].T).T
        spos_s = np.ascontiguousarray(spos[s_order].T).T
        sq_s = sq[s_order]
        cells, t_cell = np.unique(t_cells[t_order], return_inverse=True)

        targets, first, lengths = self.reachable_runs(
            tpos_s, spos_s, s_cells[s_order], t_cell, cells
        )
        # calls of about _PAIRS_PER_CALL pairs, each from a target's first run
        ends = np.cumsum(lengths)
        cuts = np.searchsorted(ends, np.arange(_PAIRS_PER_CALL, ends[-1:].sum(), _PAIRS_PER_CALL))
        calls = np.unique(np.concatenate((
            [0], np.searchsorted(targets, targets.take(cuts)), [targets.shape[0]]
        ))).tolist()
        pairs = 0
        for a, b in zip(calls[:-1], calls[1:]):
            t0, t1 = int(targets[a]), int(targets[b - 1]) + 1
            local = targets[a:b] - t0
            ti, si = ragged_cross(local, local + 1, first[a:b], first[a:b] + lengths[a:b])
            ti, si = self._dedup(ti, si, spos.shape[0])
            pot_s[t0:t1], field_s[t0:t1], count = erfc_pairs(
                tpos_s[t0:t1], spos_s, sq_s, ti, si, self.alpha, self.rc, box=self.box
            )
            pairs += count
        pot = np.zeros(nt)
        field = np.zeros((nt, 3))
        pot[t_order] = pot_s
        field[t_order] = field_s
        return pot, field, pairs
