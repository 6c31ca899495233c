"""Second-order leapfrog integration (Eqs. (1)-(2) of the paper).

``x_{i+1} = x_i + v_i dt + a_i dt^2 / 2``
``v_{i+1} = v_i + (a_i + a_{i+1}) dt / 2``

Accelerations come from the solver's field values: ``a = q E / m`` (unit
masses throughout).  The position update also measures each rank's maximum
particle displacement — the quantity the application feeds back to the
solver through ``fcs_set_max_particle_move`` (Sect. III-B: "an application
can determine the maximum movement of the particles ... during the update
of the particle positions").
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.core.geometry import squared_norms, wrap_into_box
from repro.core.particles import RankMajor
from repro.simmpi.collectives import allreduce
from repro.simmpi.machine import Machine

__all__ = ["accelerations", "position_update", "velocity_update"]

#: every argument below is the rank-major column of all ranks; one array per
#: rank (what a caller outside the library holds) is concatenated at entry
Column = Union[RankMajor, Sequence[np.ndarray]]


def accelerations(q: Column, field: Column, mass: float = 1.0) -> RankMajor:
    """Accelerations ``a = q E / m`` from solver field values, one pass over
    the rows of all ranks."""
    q = RankMajor.of(q)
    return RankMajor((q.data[:, None] * RankMajor.of(field).data) / mass, q.offsets)


def position_update(
    machine: Machine,
    pos: Column,
    vel: Column,
    acc: Column,
    dt: float,
    box: Optional[np.ndarray] = None,
    offset: Optional[np.ndarray] = None,
    phase: str = "integrate",
) -> Tuple[RankMajor, float]:
    """Leapfrog position update; returns new positions and the *global*
    maximum displacement (one allreduce, charged to the integrator phase).

    Positions wrap into the periodic box when ``box`` is given (only those
    that left it take ``np.mod``).
    """
    pos = RankMajor.of(pos)
    counts = pos.counts
    step = RankMajor.of(vel).data * dt
    work = 0.5 * RankMajor.of(acc).data
    work *= dt
    work *= dt
    step += work
    xn = np.add(pos.data, step, out=work)
    if box is not None:
        off = offset if offset is not None else np.zeros(3)
        xn -= off
        wrap_into_box(xn, box)
        xn += off
    # per-rank maximum displacement: one reduction over each non-empty rank's rows
    local_max = np.zeros(machine.nprocs)
    filled = np.flatnonzero(counts)
    local_max[filled] = np.sqrt(np.maximum.reduceat(squared_norms(step), pos.offsets[filled]))
    machine.compute(kernels.INTEGRATION_STEP * counts, phase)
    max_move = float(allreduce(machine, local_max, op="max", phase=phase))
    return RankMajor(xn, pos.offsets), max_move


def velocity_update(
    machine: Machine,
    vel: Column,
    acc_old: Column,
    acc_new: Column,
    dt: float,
    phase: str = "integrate",
) -> RankMajor:
    """Leapfrog velocity update ``v += (a_i + a_{i+1}) dt / 2``."""
    vel = RankMajor.of(vel)
    out = RankMajor.of(acc_old).data + RankMajor.of(acc_new).data
    out *= 0.5
    out *= dt
    out += vel.data
    machine.compute(kernels.INTEGRATION_STEP * vel.counts, phase)
    return RankMajor(out, vel.offsets)
