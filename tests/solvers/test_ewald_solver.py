"""The parallel classical Ewald solver (baseline method "ewald")."""

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine
from repro.solvers.ewald_ref import ewald_sum
from conftest import random_particle_set


def run(system, nprocs, method="A", accuracy=1e-4, **kwargs):
    m = Machine(nprocs)
    pset, owner = random_particle_set(system, nprocs, seed=7)
    fcs = fcs_init("ewald", m, cutoff=4.0, **kwargs)
    fcs.set_common(box=system.box, periodic=True)
    if method == "B":
        fcs.set_resort(True)
    fcs.tune(pset, accuracy)
    report = fcs.run(pset)
    return m, pset, owner, report, fcs


class TestAccuracy:
    def test_matches_reference(self, small_system):
        m, pset, owner, _, _ = run(small_system, 4)
        pe, fe = ewald_sum(small_system.pos, small_system.q, small_system.box, accuracy=1e-12)
        got = np.concatenate(pset.pot)
        exp = np.concatenate([pe[owner == r] for r in range(4)])
        rms = np.sqrt(((got - exp) ** 2).mean() / (exp ** 2).mean())
        assert rms < 3e-3
        gotf = np.concatenate(pset.field)
        expf = np.concatenate([fe[owner == r] for r in range(4)])
        rmsf = np.sqrt(((gotf - expf) ** 2).sum(1).mean() / (expf ** 2).sum(1).mean())
        assert rmsf < 3e-3

    def test_energy(self, small_system):
        m, pset, owner, _, _ = run(small_system, 4)
        pe, _ = ewald_sum(small_system.pos, small_system.q, small_system.box, accuracy=1e-12)
        E = 0.5 * (np.concatenate(pset.q) * np.concatenate(pset.pot)).sum()
        Ee = 0.5 * (small_system.q * pe).sum()
        assert abs(E - Ee) / abs(Ee) < 1e-3

    def test_agrees_with_other_solvers(self, small_system):
        energies = {}
        for solver in ("ewald", "p2nfft"):
            m = Machine(4)
            pset, _ = random_particle_set(small_system, 4, seed=7)
            fcs = fcs_init(solver, m, cutoff=4.0)
            fcs.set_common(box=small_system.box, periodic=True)
            fcs.tune(pset, 1e-4)
            fcs.run(pset)
            energies[solver] = 0.5 * (
                np.concatenate(pset.q) * np.concatenate(pset.pot)
            ).sum()
        assert energies["ewald"] == pytest.approx(energies["p2nfft"], rel=3e-3)


class TestMethodB:
    def test_resort_roundtrip(self, small_system):
        m, pset, owner, report, fcs = run(small_system, 4, method="B")
        assert report.changed
        old_pos = [small_system.pos[owner == r] * 2.0 for r in range(4)]
        tagged = fcs.resort(old_pos)
        for r in range(4):
            np.testing.assert_allclose(tagged[r], pset.pos[r] * 2.0)

    def test_grid_ownership_after_b(self, small_system):
        m, pset, owner, report, fcs = run(small_system, 4, method="B")
        for r in range(4):
            np.testing.assert_array_equal(
                fcs.solver.grid.rank_of_positions(pset.pos[r]), r
            )


class TestIntegration:
    def test_md_energy_conservation(self, small_system):
        cfg = SimulationConfig(
            solver="ewald",
            method="B",
            dt=0.05,
            distribution="random",
            track_energy=True,
            accuracy=1e-4,
            solver_kwargs={"cutoff": 4.0},
            seed=2,
        )
        sim = Simulation(Machine(4), small_system, cfg)
        recs = sim.run(3)
        E = [r.energy for r in recs]
        assert abs(E[-1] - E[0]) / abs(E[0]) < 1e-3

    def test_skip_mode(self, small_system):
        m, pset, owner, report, _ = run(small_system, 4, method="B", compute="skip")
        assert report.changed
        assert m.trace.phase("far").time > 0
        assert m.trace.phase("near").time > 0

    def test_open_rejected(self):
        fcs = fcs_init("ewald", Machine(2))
        with pytest.raises(ValueError, match="periodic"):
            fcs.set_common(box=(10.0, 10.0, 10.0), periodic=False)

    def test_in_registry(self):
        from repro.core.handle import available_solvers

        assert "ewald" in available_solvers()
