"""Verlet neighbor lists with movement-based invalidation.

The same observation that powers the paper's method B — *particles move
only slightly per time step* — also powers the classic Verlet-list
optimization of the near field: build the pair list once with an enlarged
cutoff ``rc + skin`` and reuse it as long as the accumulated maximum
movement stays below ``skin / 2`` (then no pair can have crossed the true
cutoff undetected).

:class:`VerletNeighborList` wraps the linked-cell machinery to build the
enlarged-cutoff pair list and evaluates the Ewald real-space kernel over
the cached pairs, tracking the movement budget exactly like the library
tracks ``max_particle_move``.  It requires a *stable particle indexing*
between calls (same particles, same order) — the regime of a serial MD
loop or a fixed-decomposition rank; the parallel solvers keep plain linked
cells because their local particle sets change every redistribution.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.solvers.common.pairs import erfc_pairs, pair_displacements
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField

__all__ = ["VerletNeighborList"]


class VerletNeighborList:
    """Cached near-field pair list with a movement budget."""

    def __init__(
        self,
        box: np.ndarray,
        offset: np.ndarray,
        rc: float,
        alpha: float,
        skin: float = 0.3,
    ) -> None:
        if skin <= 0:
            raise ValueError(f"skin must be positive, got {skin}")
        self.box = np.asarray(box, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        self.rc = float(rc)
        self.alpha = float(alpha)
        self.skin = float(skin)
        self._cells = LinkedCellNearField(self.box, self.offset, self.rc + self.skin, alpha)
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._n_cached = -1
        self._movement_budget = 0.0
        #: diagnostic counters
        self.rebuilds = 0
        self.reuses = 0

    # -- cache management ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached list (e.g. after a redistribution)."""
        self._pairs = None
        self._n_cached = -1
        self._movement_budget = 0.0

    def _needs_rebuild(self, n: int, max_move: Optional[float]) -> bool:
        if self._pairs is None or n != self._n_cached:
            return True
        if max_move is None:
            return True  # unknown movement: cannot trust the cache
        return self._movement_budget + max_move > 0.5 * self.skin

    def _build(self, pos: np.ndarray) -> None:
        """Pair list at the enlarged cutoff via the linked-cell machinery."""
        lc = self._cells
        n = pos.shape[0]
        t_cells = lc.cell_ids(pos)
        order = np.argsort(t_cells, kind="stable")
        sorted_cells = t_cells[order]
        cells, first = np.unique(sorted_cells, return_index=True)
        last = np.concatenate((first[1:], [n]))
        cz = cells % lc.dims[2]
        cy = (cells // lc.dims[2]) % lc.dims[1]
        cx = cells // (lc.dims[1] * lc.dims[2])
        ti, si = lc.candidate_pairs(first, last, sorted_cells, cx, cy, cz, n)
        ti, si = order[ti], order[si]
        # keep only pairs within the enlarged cutoff (tightens the list).
        # Self-pairs go by index, not by distance: two particles that
        # coincide now may be apart when the list is reused.
        cols = np.ascontiguousarray(pos.T)
        r2, _ = pair_displacements(cols, cols, ti, si, self.box)
        within = (ti != si) & (r2 <= (self.rc + self.skin) ** 2)
        self._pairs = (ti[within], si[within])
        self._n_cached = n
        self._movement_budget = 0.0
        self.rebuilds += 1

    # -- evaluation ----------------------------------------------------------------

    def compute(
        self,
        pos: np.ndarray,
        q: np.ndarray,
        max_move: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Ewald real-space sums using the cached pair list when valid.

        ``max_move`` is the maximum particle displacement since the
        *previous* call (the application's bound); without it the list is
        rebuilt every time.  Returns ``(pot, field, pair_count)``.
        """
        n = pos.shape[0]
        if self._needs_rebuild(n, max_move):
            self._build(pos)
        else:
            self._movement_budget += float(max_move)
            self.reuses += 1
        ti, si = self._pairs
        pot, field, count = erfc_pairs(
            pos, pos, q, ti, si, self.alpha, self.rc, box=self.box
        )
        return pot, field, count
