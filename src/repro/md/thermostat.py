"""Velocity initialisation and temperature control.

The paper's benchmark starts from ``v0 = 0`` (the melting crystal heats up
from its potential energy).  For general MD use the library also provides
the standard tools a downstream user expects:

* :func:`maxwell_boltzmann` — velocities drawn from the Maxwell-Boltzmann
  distribution at a target temperature, with the center-of-mass drift
  removed (so total momentum starts at zero);
* :func:`temperature` — instantaneous kinetic temperature
  ``T = 2 E_kin / (3 N k_B)`` (k_B = 1 in our reduced units);
* :class:`BerendsenThermostat` — weak-coupling velocity rescaling toward a
  target temperature.

All functions operate on the distributed application's velocities — the
rank-major column ``sim.vel``, or one array per rank — and charge their
(tiny) collective costs to the machine.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.particles import RankMajor
from repro.simmpi.collectives import allreduce
from repro.simmpi.machine import Machine

__all__ = ["maxwell_boltzmann", "temperature", "BerendsenThermostat"]


def maxwell_boltzmann(
    counts: Sequence[int],
    target_temperature: float,
    mass: float = 1.0,
    seed: int = 0,
) -> RankMajor:
    """Velocities at the given temperature, zero total momentum, rank-major
    over ``counts``.

    Uses one global RNG stream so the result is independent of the
    distribution of particles among ranks.
    """
    if target_temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {target_temperature}")
    total = int(sum(counts))
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(target_temperature / mass)
    vel = rng.normal(0.0, sigma, (total, 3)) if total else np.zeros((0, 3))
    if total:
        vel -= vel.mean(axis=0)  # remove center-of-mass drift
        # rescale to hit the target exactly after drift removal
        t_now = temperature_global(vel, mass)
        if t_now > 0 and target_temperature > 0:
            vel *= np.sqrt(target_temperature / t_now)
        elif target_temperature == 0:
            vel[:] = 0.0
    return RankMajor(vel, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))))


def temperature_global(vel: np.ndarray, mass: float = 1.0) -> float:
    """Kinetic temperature of a single velocity array (k_B = 1)."""
    n = vel.shape[0]
    if n == 0:
        return 0.0
    ekin = 0.5 * mass * float((vel * vel).sum())
    return 2.0 * ekin / (3.0 * n)


def temperature(
    machine: Machine,
    vel: Sequence[np.ndarray],
    mass: float = 1.0,
    phase: str = "integrate",
) -> float:
    """Global kinetic temperature of distributed velocities (one allreduce)."""
    local = np.zeros((machine.nprocs, 2))
    for r, v in enumerate(vel):
        local[r, 0] = 0.5 * mass * float((v * v).sum())
        local[r, 1] = v.shape[0]
    totals = np.asarray(allreduce(machine, list(local), op="sum", phase=phase))
    if totals[1] == 0:
        return 0.0
    return 2.0 * float(totals[0]) / (3.0 * float(totals[1]))


class BerendsenThermostat:
    """Weak-coupling thermostat: rescale velocities toward ``target``.

    ``lambda = sqrt(1 + dt/tau (T_target/T - 1))`` per step; ``tau`` is the
    coupling time (larger = gentler).  Costs one allreduce per application.
    """

    def __init__(self, target: float, tau: float, dt: float) -> None:
        if target < 0 or tau <= 0 or dt <= 0:
            raise ValueError("target >= 0, tau > 0 and dt > 0 required")
        self.target = float(target)
        self.tau = float(tau)
        self.dt = float(dt)

    def apply(
        self,
        machine: Machine,
        vel: Union[RankMajor, Sequence[np.ndarray]],
        mass: float = 1.0,
        phase: str = "integrate",
    ) -> RankMajor:
        """Return rescaled velocities (the inputs are not modified)."""
        vel = RankMajor.of(vel)
        t_now = temperature(machine, vel, mass, phase)
        factor = 1.0
        if t_now > 0.0:
            factor = np.sqrt(max(1.0 + self.dt / self.tau * (self.target / t_now - 1.0), 0.0))
        return RankMajor(vel.data * factor, vel.offsets)
