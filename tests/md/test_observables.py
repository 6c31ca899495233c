"""Energy/momentum/drift observables."""

import numpy as np
import pytest

from instruments import max_drift, mean_drift, total_momentum
from repro.md.observables import kinetic_energy, potential_energy


def test_kinetic_energy():
    vel = [np.array([[3.0, 0, 0]]), np.array([[0.0, 4.0, 0]])]
    assert kinetic_energy(vel) == pytest.approx(0.5 * 9 + 0.5 * 16)
    assert kinetic_energy(vel, mass=2.0) == pytest.approx(9 + 16)


def test_potential_energy():
    q = [np.array([1.0, -1.0])]
    pot = [np.array([2.0, 4.0])]
    assert potential_energy(q, pot) == pytest.approx(0.5 * (2.0 - 4.0))


def test_total_momentum():
    vel = [np.array([[1.0, 0, 0]]), np.array([[-1.0, 0, 0]]), np.zeros((0, 3))]
    np.testing.assert_allclose(total_momentum(vel), 0.0)


def test_drift_minimum_image():
    box = np.full(3, 10.0)
    a = np.array([[9.8, 0, 0], [5.0, 5.0, 5.0]])
    b = np.array([[0.2, 0, 0], [5.0, 5.0, 6.0]])
    assert max_drift(a, b, box) == pytest.approx(1.0)
    assert mean_drift(a, b, box) == pytest.approx(0.7)


def test_drift_empty():
    assert max_drift(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    assert mean_drift(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
