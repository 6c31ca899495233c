"""Velocity initialisation and temperature control."""

import numpy as np
import pytest

from repro.md.thermostat import (
    BerendsenThermostat,
    maxwell_boltzmann,
    temperature,
    temperature_global,
)
from repro.simmpi.machine import Machine


class TestMaxwellBoltzmann:
    def test_target_temperature_exact(self):
        vel = maxwell_boltzmann([500, 300, 200], 2.5, seed=1)
        all_v = np.concatenate(vel)
        assert temperature_global(all_v) == pytest.approx(2.5, rel=1e-12)

    def test_zero_momentum(self):
        vel = maxwell_boltzmann([400, 600], 1.0, seed=2)
        np.testing.assert_allclose(np.concatenate(vel).sum(axis=0), 0.0, atol=1e-9)

    def test_distribution_independent_of_split(self):
        a = np.concatenate(maxwell_boltzmann([1000], 1.0, seed=3))
        b = np.concatenate(maxwell_boltzmann([250, 250, 500], 1.0, seed=3))
        np.testing.assert_allclose(a, b)

    def test_zero_temperature(self):
        vel = maxwell_boltzmann([100], 0.0)
        assert np.all(np.concatenate(vel) == 0.0)

    def test_empty_ranks(self):
        vel = maxwell_boltzmann([0, 50, 0], 1.0)
        assert vel[0].shape == (0, 3) and vel[2].shape == (0, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            maxwell_boltzmann([10], -1.0)


class TestTemperature:
    def test_distributed_matches_global(self, machine4):
        rng = np.random.default_rng(0)
        vel = [rng.normal(size=(50, 3)) for _ in range(4)]
        t_dist = temperature(machine4, vel)
        t_glob = temperature_global(np.concatenate(vel))
        assert t_dist == pytest.approx(t_glob)

    def test_empty(self, machine4):
        assert temperature(machine4, [np.zeros((0, 3))] * 4) == 0.0

    def test_charges_communication(self, machine4):
        temperature(machine4, [np.ones((5, 3))] * 4, phase="t")
        assert machine4.trace.phase("t").time > 0


class TestBerendsen:
    def test_drives_toward_target(self, machine4):
        rng = np.random.default_rng(1)
        vel = [rng.normal(0, 2.0, (100, 3)) for _ in range(4)]
        thermo = BerendsenThermostat(target=1.0, tau=0.5, dt=0.1)
        for _ in range(50):
            vel = thermo.apply(machine4, vel)
        t_final = temperature(machine4, vel)
        assert t_final == pytest.approx(1.0, rel=0.05)

    def test_heats_cold_system(self, machine4):
        vel = [np.full((50, 3), 0.01) for _ in range(4)]
        thermo = BerendsenThermostat(target=5.0, tau=1.0, dt=0.2)
        t0 = temperature(machine4, vel)
        vel = thermo.apply(machine4, vel)
        assert temperature(machine4, vel) > t0

    def test_zero_velocities_stay(self, machine4):
        vel = [np.zeros((10, 3))] * 4
        thermo = BerendsenThermostat(target=1.0, tau=1.0, dt=0.1)
        out = thermo.apply(machine4, vel)
        assert all(np.all(v == 0) for v in out)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BerendsenThermostat(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            BerendsenThermostat(1.0, 0.0, 0.1)
