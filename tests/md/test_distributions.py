"""The three initial distributions of Sect. IV-B."""

import dataclasses

import numpy as np
import pytest

from repro.md.distributions import DISTRIBUTIONS, distribute, rank_order
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine


class TestDistribute:
    def test_single(self, small_system):
        pset, vel, owner = distribute(small_system, 4, "single")
        assert pset.counts()[0] == small_system.n
        assert pset.counts()[1] == 0
        assert np.all(owner == 0)
        assert pset.capacities[0] >= small_system.n

    def test_random_covers_all(self, small_system):
        pset, vel, owner = distribute(small_system, 4, "random", seed=1)
        assert pset.total() == small_system.n
        assert len(np.unique(owner)) == 4

    def test_grid_ownership(self, small_system):
        pset, vel, owner = distribute(small_system, 8, "grid")
        grid = CartGrid(8, small_system.box, small_system.offset)
        np.testing.assert_array_equal(
            owner, grid.rank_of_positions(small_system.pos)
        )
        for r in range(8):
            np.testing.assert_array_equal(grid.rank_of_positions(pset.pos[r]), r)

    def test_velocities_follow(self, small_system):
        sys2 = small_system
        pset, vel, owner = distribute(sys2, 4, "random", seed=2)
        for r in range(4):
            assert vel[r].shape == pset.pos[r].shape

    def test_data_integrity(self, small_system):
        """Every particle appears exactly once with its own charge."""
        pset, vel, owner = distribute(small_system, 4, "random", seed=3)
        got = np.concatenate(pset.q)
        expected = np.concatenate([small_system.q[owner == r] for r in range(4)])
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", DISTRIBUTIONS)
    @pytest.mark.parametrize("nprocs", [1, 5, 27, 600])
    def test_per_rank_arrays_are_those_of_a_scan_per_rank(self, small_system, kind, nprocs):
        """One stable order of ``owner`` and one cut per column give what a
        boolean scan of ``owner`` for every rank gave: the same rows in the
        same order, contiguous, for positions, charges, velocities and the
        simulation's particle ids (600 ranks for 400 particles: most ranks
        are empty)."""
        vel = np.random.default_rng(5).standard_normal(small_system.pos.shape)
        system = dataclasses.replace(small_system, vel=vel)
        pset, vel_r, owner = distribute(system, nprocs, kind, seed=4)
        order, cuts = rank_order(owner, nprocs)
        ids = np.split(order, cuts)
        assert len(pset.pos) == len(pset.q) == len(vel_r) == len(ids) == nprocs
        for r in range(nprocs):
            mine = owner == r
            for got, column in ((pset.pos[r], system.pos), (pset.q[r], system.q), (vel_r[r], vel)):
                assert got.flags.c_contiguous and got.dtype == column.dtype
                np.testing.assert_array_equal(got, column[mine])
            assert ids[r].dtype == np.int64
            np.testing.assert_array_equal(ids[r], np.flatnonzero(mine))

    def test_simulation_ids_are_the_rows_of_each_rank(self, small_system):
        config = SimulationConfig(distribution="random", seed=2, solver_kwargs={"compute": "skip"})
        sim = Simulation(Machine(6), small_system, config)
        _, _, owner = distribute(small_system, 6, "random", seed=2)
        for r in range(6):
            np.testing.assert_array_equal(sim.ids[r], np.flatnonzero(owner == r))
            np.testing.assert_array_equal(sim.particles.pos[r], small_system.pos[owner == r])

    def test_unknown_kind(self, small_system):
        with pytest.raises(ValueError, match="unknown distribution"):
            distribute(small_system, 4, "zigzag")

    def test_names_constant(self):
        assert DISTRIBUTIONS == ("single", "random", "grid")
