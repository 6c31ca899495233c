"""Maximum-movement bookkeeping and the limited-movement heuristics.

Within a particle dynamics simulation the positions "change only slightly
from one time step to the next" (Sect. III-B).  The application can
determine the maximum movement of the particles during the position update
(:func:`repro.md.integrator.position_update` returns it) and pass it to the
solver, which uses it to pick cheaper redistribution strategies:

* **FMM** — if the maximum movement is less than the side length of a cube
  holding the average per-process volume of the system, the particles are
  "almost sorted" and the solver switches from the partition-based parallel
  sorting (collective all-to-all) to the merge-based parallel sorting
  (point-to-point merge-exchange) — :func:`fmm_prefers_merge_sort`.
* **P2NFFT** — if the maximum movement restricts redistribution to direct
  neighbors within the process grid, all-to-all communication is replaced
  by neighborhood communication — :func:`p2nfft_prefers_neighborhood`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.simmpi.cart import CartGrid

__all__ = [
    "process_cube_side",
    "fmm_prefers_merge_sort",
    "p2nfft_prefers_neighborhood",
    "MovementTracker",
]


def process_cube_side(box: np.ndarray, nprocs: int) -> float:
    """Side length of a cube with the average per-process volume.

    "The total volume of the particle system is divided by the number of
    parallel processes and it is assumed that the resulting volume per
    process represents a cube shaped subdomain" (Sect. III-B).
    """
    box = np.asarray(box, dtype=np.float64)
    volume = float(np.prod(box))
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    return (volume / nprocs) ** (1.0 / 3.0)


def fmm_prefers_merge_sort(box: np.ndarray, nprocs: int, max_move: float) -> bool:
    """FMM heuristic: merge-based sorting for almost-sorted particles."""
    return max_move < process_cube_side(box, nprocs)


def p2nfft_prefers_neighborhood(grid: CartGrid, max_move: float) -> bool:
    """P2NFFT heuristic: neighborhood communication when movement stays
    within direct grid neighbors."""
    return max_move < grid.max_neighbor_extent()


class MovementTracker:
    """Tracks the maximum particle movement across time steps.

    The application updates the tracker during each position update
    (:meth:`observe`); solvers read :attr:`current` through the library's
    ``set_max_particle_move`` path.  ``None`` means "unknown" — solvers then
    must assume arbitrary movement and use the general strategies.
    """

    def __init__(self) -> None:
        self.current: Optional[float] = None
        self.history: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"movement must be non-negative, got {value}")
        self.current = value
        self.history.append(value)

    def invalidate(self) -> None:
        """Forget the bound (e.g. after an external modification of positions)."""
        self.current = None

    def __repr__(self) -> str:
        return f"MovementTracker(current={self.current}, steps={len(self.history)})"
