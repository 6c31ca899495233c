"""Ewald-splitting parameter selection for the P2NFFT solver.

Given a real-space cutoff ``rc`` (the paper fixes 4.8 for the silica
system) and a target accuracy, the tuning step chooses the splitting
parameter ``alpha`` and the mesh size ``M``:

* the real-space truncation error scales like ``exp(-(alpha rc)^2)``
  (Kolafa & Perram), so ``alpha = sqrt(-ln eps) / rc``;
* the reciprocal-space accuracy of the CIC mesh is governed by ``alpha h``
  (``h = L / M``); the constant below is calibrated against the exact Ewald
  reference in the test suite.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["tune_ewald_splitting", "suggest_cutoff", "optimize_cutoff"]

#: calibrated bound on alpha * h for the CIC (order 2) mesh at the
#: reference accuracy 1e-3; the mesh error scales ~ (alpha h)^2 with the
#: optimal influence function, so tighter accuracies shrink the bound
_ALPHA_H_MAX = 0.45
_REFERENCE_ACCURACY = 1e-3


def suggest_cutoff(box: np.ndarray, n: int) -> float:
    """A density-balanced default cutoff (~25 neighbors per particle), at
    most half the shortest box side (that, for no particles)."""
    box = np.asarray(box, dtype=np.float64)
    volume = float(np.prod(box))
    rho = n / volume
    rc = (3.0 * 25.0 / (4.0 * math.pi * rho)) ** (1.0 / 3.0) if rho > 0 else math.inf
    return min(rc, 0.5 * float(box.min()))


def optimize_cutoff(
    box: np.ndarray,
    n: int,
    accuracy: float,
    candidates: int = 12,
) -> float:
    """Model-driven cutoff selection: minimize predicted near + mesh work.

    A larger cutoff means more real-space pairs but a smaller alpha and
    hence a coarser mesh; the optimum balances the two.  Costs come from
    the same kernel constants the machine charges, so the tuner optimizes
    exactly the quantity the benchmarks report.
    """
    from repro import kernels

    box = np.asarray(box, dtype=np.float64)
    volume = float(np.prod(box))
    rho = n / volume
    rc_max = 0.5 * float(box.min())
    best_rc, best_cost = None, math.inf
    for i in range(1, candidates + 1):
        rc = rc_max * i / candidates
        try:
            alpha, M = tune_ewald_splitting(box, rc, accuracy)
        except ValueError:
            continue
        pairs_per_particle = rho * (4.0 / 3.0) * math.pi * rc ** 3
        near = n * pairs_per_particle * kernels.ERFC_PAIR
        mesh = (
            n * 5.0 * kernels.MESH_ASSIGNMENT
            + 5.0 * (float(M) ** 3) * 3.0 * math.log2(max(M, 2)) * kernels.FFT_POINT_STAGE
        )
        cost = near + mesh
        if cost < best_cost:
            best_rc, best_cost = rc, cost
    if best_rc is None:
        raise ValueError("no admissible cutoff found")
    return best_rc


def tune_ewald_splitting(
    box: np.ndarray,
    rc: float,
    accuracy: float,
    max_mesh: int = 256,
) -> Tuple[float, int]:
    """Choose ``(alpha, M)`` for cutoff ``rc`` and target relative accuracy."""
    box = np.asarray(box, dtype=np.float64)
    if rc <= 0 or rc > 0.5 * float(box.min()):
        raise ValueError(
            f"cutoff must be in (0, {0.5 * float(box.min())}], got {rc}"
        )
    if accuracy <= 0:
        raise ValueError(f"accuracy must be positive, got {accuracy}")
    alpha = math.sqrt(max(-math.log(accuracy), 1.0)) / rc
    alpha_h = _ALPHA_H_MAX * math.sqrt(min(accuracy / _REFERENCE_ACCURACY, 1.0))
    h_max = alpha_h / alpha
    M = int(math.ceil(float(box.max()) / h_max))
    # round to the next even size (friendlier FFT factorizations)
    M += M % 2
    M = max(8, min(M, max_mesh))
    return alpha, M
