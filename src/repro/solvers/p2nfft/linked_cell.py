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
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.solvers.common.pairs import erfc_pairs, ragged_cross

__all__ = ["LinkedCellNearField"]

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

    def candidate_pairs(
        self,
        t_first: np.ndarray,
        t_last: np.ndarray,
        s_sorted: np.ndarray,
        cx: np.ndarray,
        cy: np.ndarray,
        cz: np.ndarray,
        n_sources: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (target, source) pairs over the 27 neighbor offsets.

        All segment tables (one per offset x occupied target cell) are built
        in one shot and handed to a single :func:`ragged_cross` call; the
        scalar oracle in ``tests/kernel_oracles.py`` issues one searchsorted
        + cross product per offset (the original 27-iteration loop).  Both
        emit pairs offset-major, cell-major — bitwise identical index arrays.
        """
        # neighbor cell ids of every occupied target cell, (27, ncells)
        nx = (cx[None, :] + _OFFSETS[:, 0:1]) % self.dims[0]
        ny = (cy[None, :] + _OFFSETS[:, 1:2]) % self.dims[1]
        nz = (cz[None, :] + _OFFSETS[:, 2:3]) % self.dims[2]
        ncell = ((nx * self.dims[1] + ny) * self.dims[2] + nz).ravel()
        s_start = np.searchsorted(s_sorted, ncell, side="left")
        s_end = np.searchsorted(s_sorted, ncell, side="right")
        ti, si = ragged_cross(
            np.tile(t_first, 27), np.tile(t_last, 27), s_start, s_end
        )
        return self._dedup(ti, si, n_sources)

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
        """
        nt = tpos.shape[0]
        if nt == 0 or spos.shape[0] == 0:
            return np.zeros(nt), np.zeros((nt, 3)), 0

        t_cells = self.cell_ids(tpos)
        s_cells = self.cell_ids(spos)
        t_order = np.argsort(t_cells, kind="stable")
        s_order = np.argsort(s_cells, kind="stable")
        tpos_s = tpos[t_order]
        spos_s = spos[s_order]
        sq_s = sq[s_order]
        t_sorted = t_cells[t_order]
        s_sorted = s_cells[s_order]

        cells, t_first = np.unique(t_sorted, return_index=True)
        t_last = np.concatenate((t_first[1:], [t_sorted.shape[0]]))
        cz = cells % self.dims[2]
        cy = (cells // self.dims[2]) % self.dims[1]
        cx = cells // (self.dims[1] * self.dims[2])

        ti, si = self.candidate_pairs(
            t_first, t_last, s_sorted, cx, cy, cz, spos.shape[0]
        )
        if ti.size == 0:
            return np.zeros(nt), np.zeros((nt, 3)), 0

        pot_s, field_s, pairs = erfc_pairs(
            tpos_s, spos_s, sq_s, ti, si, self.alpha, self.rc, box=self.box
        )
        pot = np.zeros(nt)
        field = np.zeros((nt, 3))
        pot[t_order] = pot_s
        field[t_order] = field_s
        return pot, field, pairs
