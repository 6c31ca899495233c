"""Trajectory I/O.

:func:`write_xyz` / :func:`read_xyz` — extended-XYZ snapshots (one species
letter per charge sign, positions, optional velocities), the format every
MD visualizer understands.  Checkpoint/restart, including restarting on a
*different* process count, lives in :mod:`repro.ckpt`.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = ["write_xyz", "read_xyz"]


def write_xyz(
    path: str,
    pos: np.ndarray,
    q: np.ndarray,
    vel: Optional[np.ndarray] = None,
    comment: str = "",
    append: bool = False,
) -> None:
    """Write one (extended) XYZ frame; cation = 'Na', anion = 'Cl'."""
    n = pos.shape[0]
    if pos.shape != (n, 3) or q.shape != (n,):
        raise ValueError("pos must be (n, 3) and q (n,)")
    if vel is not None and vel.shape != (n, 3):
        raise ValueError("vel must be (n, 3)")
    mode = "a" if append else "w"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, mode) as fh:
        fh.write(f"{n}\n{comment}\n")
        for i in range(n):
            species = "Na" if q[i] > 0 else "Cl"
            line = f"{species} {pos[i, 0]:.10f} {pos[i, 1]:.10f} {pos[i, 2]:.10f}"
            if vel is not None:
                line += f" {vel[i, 0]:.10f} {vel[i, 1]:.10f} {vel[i, 2]:.10f}"
            fh.write(line + "\n")


def read_xyz(path: str, frame: int = 0):
    """Read one frame; returns ``(pos, q, vel_or_None, comment)``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = 0
    for _ in range(frame + 1):
        if idx >= len(lines):
            raise ValueError(f"frame {frame} not present in {path}")
        n = int(lines[idx].strip())
        start = idx
        idx += 2 + n
    comment = lines[start + 1]
    rows = [lines[start + 2 + i].split() for i in range(n)]
    q = np.asarray([1.0 if r[0] == "Na" else -1.0 for r in rows])
    pos = np.asarray([[float(v) for v in r[1:4]] for r in rows]).reshape(n, 3)
    vel = None
    if rows and len(rows[0]) >= 7:
        vel = np.asarray([[float(v) for v in r[4:7]] for r in rows])
    return pos, q, vel, comment
