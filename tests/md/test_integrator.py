"""Leapfrog integration: Eqs. (1)-(2), movement measurement."""

import numpy as np
import pytest

from repro.bench.harness import make_system
from repro.core.geometry import wrap_into_box
from repro.md.integrator import accelerations, position_update, velocity_update
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine


class TestAccelerations:
    def test_a_equals_qE_over_m(self):
        q = [np.array([2.0, -1.0])]
        field = [np.array([[1.0, 0, 0], [0, 3.0, 0]])]
        a = accelerations(q, field, mass=2.0)
        np.testing.assert_allclose(a[0], [[1.0, 0, 0], [0, -1.5, 0]])


class TestPositionUpdate:
    def test_equation_one(self, machine4):
        pos = [np.array([[1.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        vel = [np.array([[2.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        acc = [np.array([[4.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        new, mv = position_update(machine4, pos, vel, acc, dt=0.5)
        # x + v dt + a dt^2 / 2 = 1 + 1 + 0.5
        assert new[0][0, 0] == pytest.approx(2.5)
        assert mv == pytest.approx(1.5)

    def test_wrap(self, machine4):
        box = np.full(3, 10.0)
        pos = [np.array([[9.9, 0, 0]])] + [np.zeros((0, 3))] * 3
        vel = [np.array([[2.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        acc = [np.zeros((1, 3))] + [np.zeros((0, 3))] * 3
        new, mv = position_update(machine4, pos, vel, acc, dt=0.5, box=box)
        assert new[0][0, 0] == pytest.approx(0.9)
        assert mv == pytest.approx(1.0)  # movement is the step, not the wrap

    def test_max_move_global(self, machine4):
        pos = [np.zeros((1, 3)) for _ in range(4)]
        vel = [np.zeros((1, 3)) for _ in range(4)]
        vel[3] = np.array([[0.0, 3.0, 4.0]])  # |v| = 5
        acc = [np.zeros((1, 3)) for _ in range(4)]
        _, mv = position_update(machine4, pos, vel, acc, dt=1.0)
        assert mv == pytest.approx(5.0)

    def test_charges_time(self, machine4):
        pos = [np.zeros((10, 3))] * 4
        position_update(machine4, pos, pos, pos, 0.1, phase="integrate")
        assert machine4.trace.phase("integrate").time > 0


class TestVelocityUpdate:
    def test_equation_two(self, machine4):
        vel = [np.array([[1.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        a0 = [np.array([[2.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        a1 = [np.array([[4.0, 0, 0]])] + [np.zeros((0, 3))] * 3
        out = velocity_update(machine4, vel, a0, a1, dt=0.5)
        # v + (a0 + a1)/2 dt = 1 + 3*0.5
        assert out[0][0, 0] == pytest.approx(2.5)


class TestLeapfrogProperties:
    def harmonic_trajectory(self, dt, steps):
        """1-D harmonic oscillator x'' = -x via the same update equations."""
        m = Machine(1)
        pos = [np.array([[1.0, 0.0, 0.0]])]
        vel = [np.zeros((1, 3))]
        acc = [np.array([[-1.0, 0.0, 0.0]])]
        xs = [1.0]
        for _ in range(steps):
            pos, _ = position_update(m, pos, vel, acc, dt)
            acc_new = [-pos[0]]
            vel = velocity_update(m, vel, acc, acc_new, dt)
            acc = acc_new
            xs.append(pos[0][0, 0])
        return np.asarray(xs), pos, vel, acc

    def test_energy_conservation_harmonic(self):
        dt = 0.05
        xs, pos, vel, acc = self.harmonic_trajectory(dt, 500)
        E = 0.5 * vel[0][0, 0] ** 2 + 0.5 * pos[0][0, 0] ** 2
        assert E == pytest.approx(0.5, rel=1e-3)  # initial E = 0.5

    def test_time_reversibility(self):
        dt = 0.05
        m = Machine(1)
        pos = [np.array([[1.0, 0.0, 0.0]])]
        vel = [np.array([[0.3, 0.0, 0.0]])]
        acc = [-pos[0]]
        for _ in range(50):
            pos, _ = position_update(m, pos, vel, acc, dt)
            an = [-pos[0]]
            vel = velocity_update(m, vel, acc, an, dt)
            acc = an
        # reverse velocities and integrate back
        vel = [-vel[0]]
        for _ in range(50):
            pos, _ = position_update(m, pos, vel, acc, dt)
            an = [-pos[0]]
            vel = velocity_update(m, vel, acc, an, dt)
            acc = an
        assert pos[0][0, 0] == pytest.approx(1.0, abs=1e-10)
        assert vel[0][0, 0] == pytest.approx(-0.3, abs=1e-10)


def test_a_steady_step_wraps_only_the_coordinates_that_left_the_box(rebind):
    """A brownian step of a P = 64 cell moves every particle a little (here
    1/27 of a subdomain edge): the wrap's ``np.mod`` sees exactly the
    coordinates the step carried out of ``(0, L)`` — about a hundred of
    24 576 — and no other."""
    system = make_system(8192, 1)
    config = SimulationConfig(
        solver="fmm", method="B", dynamics="brownian", brownian_step=0.5,
        solver_kwargs={"compute": "skip"},
    )
    sim = Simulation(Machine(64), system, config)
    sim.run(1)
    moved = sim.particles.block["pos"] + sim.store.data["vel"] * config.dt
    left = ~((moved > 0.0) & (moved < system.box))
    seen = []
    rebind(wrap_into_box, lambda x, box: seen.append(wrap_into_box(x, box)) or seen[-1])
    sim.step()
    (outside,) = seen
    for axis in range(3):
        np.testing.assert_array_equal(outside[axis], np.flatnonzero(left[:, axis]))
    assert 0 < left.sum() < 0.005 * left.size
