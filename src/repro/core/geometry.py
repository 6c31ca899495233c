"""Per-row geometry of ``(n, 3)`` coordinate arrays, one column at a time.

Particles move a little per step, so almost every coordinate is still
strictly inside the periodic box after it: the wrap is the identity there and
only the few rows that left the box need ``np.mod``.  Row norms and sums are
added over contiguous columns instead of reduced along a length-3 axis.
Both give what the full-length operation gives, bit for bit
(``tests/row_oracles.py`` keeps the bodies they replaced).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["wrap_into_box", "squared_norms"]


def wrap_into_box(x: np.ndarray, box: np.ndarray) -> List[np.ndarray]:
    """Wrap the ``(n, 3)`` coordinates ``x`` — measured from the box's lower
    corner — into the periodic box in place, as ``np.mod(x, box, out=x)``
    does; returns, per axis, the rows that needed it.

    ``np.mod(w, L) == w`` exactly for ``0 < w < L``, so only the coordinates
    not strictly inside go through ``np.mod``: those outside the box, on a
    face (``0``, ``-0.0``, ``L``), NaN and inf."""
    outside = []
    for axis in range(3):
        column = x[:, axis]
        inside = column > 0.0
        inside &= column < box[axis]
        rows = np.flatnonzero(~inside)
        if rows.size:
            column[rows] = np.mod(column[rows], box[axis])
        outside.append(rows)
    return outside


def squared_norms(v: np.ndarray) -> np.ndarray:
    """``(x*x + y*y) + z*z`` of every row of ``v`` — the order
    ``(v*v).sum(axis=1)`` and ``np.linalg.norm(v, axis=1)`` add a row in."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    out = x * x
    out += y * y
    out += z * z
    return out
