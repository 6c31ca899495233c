"""Cross-cutting edge cases: empty ranks, single ranks, tiny systems,
capacity limits, degenerate geometry — the situations a downstream user
hits first."""

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine


@pytest.fixture(scope="module")
def tiny_system():
    return silica_melt_system(64, seed=11)


class TestMoreRanksThanParticlesPerRank:
    """P close to n: many ranks hold very few (or zero) particles."""

    @pytest.mark.parametrize("solver", ["fmm", "p2nfft"])
    def test_sparse_ranks(self, tiny_system, solver):
        P = 16
        m = Machine(P)
        rng = np.random.default_rng(0)
        owner = rng.integers(0, P, tiny_system.n)
        pset = ParticleSet(
            [tiny_system.pos[owner == r].copy() for r in range(P)],
            [tiny_system.q[owner == r].copy() for r in range(P)],
        )
        kwargs = {"order": 3, "depth": 3, "lattice_shells": 1} if solver == "fmm" else {}
        fcs = fcs_init(solver, m, **kwargs)
        fcs.set_common(box=tiny_system.box, periodic=True)
        fcs.tune(pset)
        report = fcs.run(pset)
        assert not report.changed
        assert np.isfinite(np.concatenate(pset.pot)).all()

    def test_empty_rank_method_b(self, tiny_system):
        """A rank starting with zero particles participates correctly."""
        P = 4
        m = Machine(P)
        owner = np.zeros(tiny_system.n, dtype=np.int64)
        owner[tiny_system.n // 2:] = 1  # ranks 2, 3 empty
        pset = ParticleSet(
            [tiny_system.pos[owner == r].copy() for r in range(P)],
            [tiny_system.q[owner == r].copy() for r in range(P)],
            capacities=[tiny_system.n] * P,
        )
        fcs = fcs_init("p2nfft", m, cutoff=3.0)
        fcs.set_common(box=tiny_system.box, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        report = fcs.run(pset)
        assert report.changed
        assert int(report.new_counts.sum()) == tiny_system.n


class TestNoParticles:
    """n = 0: a grid solver tunes and runs on an empty system.  (The Ewald
    solver's density-based cutoff divided by the density and raised a bare
    ``ZeroDivisionError``; the P2NFFT solver's cost-model cutoff did not.)"""

    @pytest.mark.parametrize("compute", ["full", "skip"])
    @pytest.mark.parametrize("solver", ["p2nfft", "ewald"])
    @pytest.mark.parametrize("resort", [False, True])
    def test_tune_and_run(self, solver, compute, resort):
        P = 4
        m = Machine(P)
        pset = ParticleSet([np.empty((0, 3))] * P, [np.empty(0)] * P)
        fcs = fcs_init(solver, m, compute=compute)
        fcs.set_common(box=(6.0, 6.0, 6.0), periodic=True)
        fcs.set_resort(resort)
        fcs.tune(pset)
        assert 0.0 < fcs.solver.rc <= 3.0
        report = fcs.run(pset)
        assert report.changed == resort
        np.testing.assert_array_equal(report.new_counts, np.zeros(P))
        assert pset.total() == 0 and all(pot.shape == (0,) for pot in pset.pot)


class TestSingleRank:
    @pytest.mark.parametrize("solver", ["fmm", "p2nfft", "direct"])
    def test_p1(self, tiny_system, solver):
        m = Machine(1)
        pset = ParticleSet([tiny_system.pos.copy()], [tiny_system.q.copy()])
        kwargs = {"order": 3, "depth": 3, "lattice_shells": 1} if solver == "fmm" else {}
        fcs = fcs_init(solver, m, **kwargs)
        fcs.set_common(box=tiny_system.box, periodic=True)
        fcs.tune(pset)
        fcs.run(pset)
        assert np.isfinite(pset.pot[0]).all()

    def test_p1_simulation(self, tiny_system):
        sim = Simulation(
            Machine(1),
            tiny_system,
            SimulationConfig(
                solver="p2nfft", method="B", dt=0.02, distribution="grid"
            ),
        )
        sim.run(2)
        assert sim.records[-1].changed


class TestResortBytes:
    def test_roundtrip(self, tiny_system):
        P = 4
        m = Machine(P)
        rng = np.random.default_rng(1)
        owner = rng.integers(0, P, tiny_system.n)
        pset = ParticleSet(
            [tiny_system.pos[owner == r].copy() for r in range(P)],
            [tiny_system.q[owner == r].copy() for r in range(P)],
        )
        fcs = fcs_init("p2nfft", m, cutoff=3.0)
        fcs.set_common(box=tiny_system.box, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        old_pos = [p.copy() for p in pset.pos]
        fcs.run(pset)
        # per-particle 8-byte records = the position-derived tag
        tags = [
            np.round(p[:, 0] * 1e6).astype(np.int64).view(np.uint8).reshape(-1, 8)
            for p in old_pos
        ]
        out = fcs.resort(tags)
        for r in range(P):
            expected = np.round(pset.pos[r][:, 0] * 1e6).astype(np.int64)
            got = out[r].reshape(-1, 8).copy().view(np.int64).ravel()
            np.testing.assert_array_equal(got, expected)


class TestOutOfBoxPositions:
    def test_positions_outside_box_wrap(self, tiny_system):
        """Positions slightly outside the box must not crash either solver
        (they wrap, like the integrator does)."""
        P = 2
        m = Machine(P)
        pos = tiny_system.pos.copy()
        pos[0] += tiny_system.box  # one full period off
        half = tiny_system.n // 2
        pset = ParticleSet(
            [pos[:half], pos[half:]], [tiny_system.q[:half], tiny_system.q[half:]]
        )
        fcs = fcs_init("p2nfft", m, cutoff=3.0)
        fcs.set_common(box=tiny_system.box, periodic=True)
        fcs.tune(pset)
        fcs.run(pset)
        assert np.isfinite(np.concatenate(pset.pot)).all()


class TestAHairBelowTheLowerFace:
    """``np.mod(-1e-18, L) == L``: a coordinate a hair below the lower box
    face wraps *onto* the upper edge.  The grid solvers used to send such a
    particle to the owner of its wrapped position and then look for the
    owned copy on the owner of its raw one — nobody owned it, and restore /
    resort-index creation came up one particle short; with the edge taken
    for a position, the ghost rule also measured its face distances from the
    wrong end of the cell."""

    P = 8

    def potentials(self, system, solver, resort, x):
        """Potentials by particle id with particle 0 at ``x`` along axis 0."""
        P = self.P
        pos = system.pos.copy()
        pos[0] = system.offset + (x, 3.0, 3.0)
        owner = np.random.default_rng(0).integers(0, P, system.n)
        pset = ParticleSet(
            [pos[owner == r] for r in range(P)],
            [system.q[owner == r] for r in range(P)],
            capacity_factor=4.0,
        )
        ids = [np.flatnonzero(owner == r) for r in range(P)]
        fcs = fcs_init(solver, Machine(P))
        fcs.set_common(box=system.box, offset=system.offset, periodic=True)
        fcs.set_resort(resort)
        fcs.tune(pset)
        report = fcs.run(pset)
        assert report.changed == resort
        assert int(report.new_counts.sum()) == system.n
        if resort:
            (ids,) = fcs.resort([ids])
        pot = np.empty(system.n)
        pot[np.concatenate(ids)] = np.concatenate(pset.pot)
        return pot

    @pytest.mark.parametrize("resort", [False, True], ids=["A", "B"])
    @pytest.mark.parametrize("solver", ["p2nfft", "ewald"])
    def test_nobody_is_lost_and_the_potentials_are_those_of_the_face(self, solver, resort):
        system = silica_melt_system(512, seed=3)
        hair = self.potentials(system, solver, resort, -1e-18)
        face = self.potentials(system, solver, resort, 0.0)
        assert np.abs(face).mean() > 0.1
        np.testing.assert_allclose(hair, face, rtol=0, atol=1e-14)


class TestMachineExtremes:
    def test_large_machine_construction(self):
        m = Machine(16384, profile=None)
        assert m.nprocs == 16384

    def test_torus_16384_juqueen(self):
        from repro.simmpi.costmodel import JUQUEEN

        m = Machine(16384, profile=JUQUEEN)
        assert m.topology.nnodes == 1024
