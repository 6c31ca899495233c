"""Physical observables of the coupled simulation.

The kinetic and electrostatic energy over all ranks, whose sum is
the energy each step of :class:`~repro.md.simulation.Simulation` records.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "kinetic_energy",
    "potential_energy",
]


def kinetic_energy(vel: Sequence[np.ndarray], mass: float = 1.0) -> float:
    """``sum 0.5 m v^2`` over all ranks."""
    return float(sum(0.5 * mass * (v * v).sum() for v in vel))


def potential_energy(q: Sequence[np.ndarray], pot: Sequence[np.ndarray]) -> float:
    """Electrostatic energy ``0.5 sum q_i phi_i`` over all ranks."""
    return float(sum(0.5 * (qi * pi).sum() for qi, pi in zip(q, pot)))
