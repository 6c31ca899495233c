"""Verlet neighbor lists: correctness, reuse, movement-budget invalidation."""

import numpy as np
import pytest

from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.neighborlist import VerletNeighborList


@pytest.fixture
def system(rng):
    L = 12.0
    n = 150
    pos = rng.uniform(0, L, (n, 3))
    q = rng.uniform(-1, 1, n)
    return pos, q, np.full(3, L)


class TestCorrectness:
    def test_matches_linked_cell(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=0.4)
        lc = LinkedCellNearField(box, np.zeros(3), 2.5, 0.8)
        p1, f1, _ = nl.compute(pos, q)
        p2, f2, _ = lc.compute(pos, pos, q)
        np.testing.assert_allclose(p1, p2, rtol=1e-12)
        np.testing.assert_allclose(f1, f2, rtol=1e-12)

    def test_correct_after_small_moves(self, system, rng):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=0.6)
        lc = LinkedCellNearField(box, np.zeros(3), 2.5, 0.8)
        nl.compute(pos, q)
        for _ in range(4):
            step = rng.uniform(-0.05, 0.05, pos.shape)
            pos = (pos + step) % box[0]
            mv = float(np.sqrt((step ** 2).sum(1).max()))
            p1, f1, _ = nl.compute(pos, q, max_move=mv)
            p2, f2, _ = lc.compute(pos, pos, q)
            np.testing.assert_allclose(p1, p2, rtol=1e-10)
            np.testing.assert_allclose(f1, f2, rtol=1e-10)
        assert nl.reuses >= 3

    def test_coincident_particles_stay_in_the_list(self, rng):
        """Two *different* particles at one position when the list is built
        are a pair like any other: they interact once they separate."""
        box = np.full(3, 10.0)
        pos = rng.uniform(0, 10.0, (50, 3))
        q = rng.uniform(-1, 1, 50)
        pos[1] = pos[0]
        nl = VerletNeighborList(box, np.zeros(3), rc=2.0, alpha=0.8, skin=0.4)
        lc = LinkedCellNearField(box, np.zeros(3), 2.0, 0.8)
        _, _, built = nl.compute(pos, q)
        assert built == lc.compute(pos, pos, q)[2]  # zero-distance: not evaluated
        pos[1, 0] += 0.1
        p1, f1, pairs = nl.compute(pos, q, max_move=0.1)
        p2, f2, expected = lc.compute(pos, pos, q)
        assert nl.reuses == 1
        assert pairs == expected == built + 2
        np.testing.assert_allclose(p1, p2, rtol=1e-12)
        np.testing.assert_allclose(f1, f2, rtol=1e-12)


class TestCachePolicy:
    def test_reuses_within_budget(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=1.0)
        nl.compute(pos, q)
        nl.compute(pos, q, max_move=0.1)
        nl.compute(pos, q, max_move=0.1)
        assert nl.rebuilds == 1
        assert nl.reuses == 2

    def test_budget_accumulates(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=1.0)
        nl.compute(pos, q)
        for _ in range(6):
            nl.compute(pos, q, max_move=0.12)  # budget 0.5 crossed at #5
        assert nl.rebuilds == 2

    def test_unknown_movement_rebuilds(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=1.0)
        nl.compute(pos, q)
        nl.compute(pos, q)  # no max_move given
        assert nl.rebuilds == 2

    def test_size_change_rebuilds(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=1.0)
        nl.compute(pos, q)
        nl.compute(pos[:-5], q[:-5], max_move=0.0)
        assert nl.rebuilds == 2

    def test_invalidate(self, system):
        pos, q, box = system
        nl = VerletNeighborList(box, np.zeros(3), rc=2.5, alpha=0.8, skin=1.0)
        nl.compute(pos, q)
        nl.invalidate()
        nl.compute(pos, q, max_move=0.0)
        assert nl.rebuilds == 2

    def test_bad_skin(self, system):
        _, _, box = system
        with pytest.raises(ValueError):
            VerletNeighborList(box, np.zeros(3), 2.5, 0.8, skin=0.0)
