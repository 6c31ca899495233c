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

import numpy as np

from repro.simmpi.cart import CartGrid

__all__ = [
    "process_cube_side",
    "fmm_prefers_merge_sort",
    "p2nfft_prefers_neighborhood",
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

