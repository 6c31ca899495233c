"""Max-movement bookkeeping and the Sect. III-B heuristics (the bound itself
comes from ``position_update``)."""

import numpy as np
import pytest

from repro.core.movement import (
    fmm_prefers_merge_sort,
    p2nfft_prefers_neighborhood,
    process_cube_side,
)
from repro.md.integrator import position_update
from repro.simmpi.cart import CartGrid


def _move(machine, old, step, box=None):
    """Move ``old`` by ``step`` (dt = 1, no acceleration); return the bound."""
    acc = [np.zeros_like(o) for o in old]
    return position_update(machine, old, step, acc, dt=1.0, box=box)


class TestMaxMovement:
    def test_basic(self, machine4, rng):
        old = [rng.uniform(0, 10, (5, 3)) for _ in range(4)]
        step = [np.zeros_like(o) for o in old]
        step[2][3] = np.array([0.3, 0.4, 0.0])  # displacement 0.5
        new, mv = _move(machine4, old, step)
        assert mv == pytest.approx(0.5)
        np.testing.assert_allclose(new[2][3], old[2][3] + step[2][3])

    def test_empty_ranks(self, machine4):
        old = [np.zeros((0, 3))] * 4
        assert _move(machine4, old, old)[1] == 0.0

    def test_minimum_image(self, machine4):
        box = np.array([10.0, 10.0, 10.0])
        old = [np.array([[9.9, 0.0, 0.0]])] + [np.zeros((0, 3))] * 3
        step = [np.array([[0.2, 0.0, 0.0]])] + [np.zeros((0, 3))] * 3
        new, mv = _move(machine4, old, step, box=box)
        assert new[0][0, 0] == pytest.approx(0.1)
        assert mv == pytest.approx(0.2)


class TestHeuristics:
    def test_cube_side(self):
        box = np.array([8.0, 8.0, 8.0])
        assert process_cube_side(box, 8) == pytest.approx(4.0)
        assert process_cube_side(box, 1) == pytest.approx(8.0)

    def test_fmm_rule(self):
        box = np.array([8.0, 8.0, 8.0])
        assert fmm_prefers_merge_sort(box, 8, 3.9)
        assert not fmm_prefers_merge_sort(box, 8, 4.1)

    def test_p2nfft_rule(self):
        grid = CartGrid(8, (8.0, 8.0, 8.0))
        assert p2nfft_prefers_neighborhood(grid, 3.9)
        assert not p2nfft_prefers_neighborhood(grid, 4.1)

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            process_cube_side(np.ones(3), 0)

