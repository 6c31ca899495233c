"""O(n^2) direct Coulomb summation — the open-boundary accuracy oracle.

``phi_i = sum_{j != i} q_j / r_ij``, ``E_i = sum_{j != i} q_j (x_i - x_j)
/ r_ij^3`` (so the force on ``i`` is ``q_i E_i``).  The minimum-image
variant sums each pair once at its nearest periodic image — *not* the full
periodic lattice sum (use :mod:`repro.solvers.ewald_ref` for that), but a
useful sanity bound for short-ranged comparisons.

Chunked over targets to bound the ``O(n^2)`` temporary memory.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["direct_sum"]


def direct_sum(
    pos: np.ndarray,
    q: np.ndarray,
    box: Optional[np.ndarray] = None,
    chunk: int = 2048,
) -> Tuple[np.ndarray, np.ndarray]:
    """Potentials and fields by direct summation.

    Parameters
    ----------
    pos, q:
        positions ``(n, 3)`` and charges ``(n,)``.
    box:
        if given, displacements use the minimum image convention in a
        periodic box of these edge lengths.
    chunk:
        number of target rows per vectorised block.

    Returns ``(pot, field)`` of shapes ``(n,)`` and ``(n, 3)``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = pos.shape[0]
    if pos.shape != (n, 3) or q.shape != (n,):
        raise ValueError(f"bad shapes: pos {pos.shape}, q {q.shape}")
    if box is not None:
        box = np.asarray(box, dtype=np.float64)
    pot = np.zeros(n, dtype=np.float64)
    field = np.zeros((n, 3), dtype=np.float64)
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        d = pos[start:end, None, :] - pos[None, :, :]
        if box is not None:
            d -= np.round(d / box) * box
        r2 = (d * d).sum(axis=2)
        np.fill_diagonal(r2[:, start:end], np.inf)
        inv_r = 1.0 / np.sqrt(r2)
        pot[start:end] = (q[None, :] * inv_r).sum(axis=1)
        field[start:end] = (q[None, :, None] * d * (inv_r / r2)[:, :, None]).sum(axis=1)
    return pot, field
