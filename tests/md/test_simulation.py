"""The coupled simulation: Fig. 3 loop, method A/B equivalence, physics."""

import numpy as np
import pytest

from instruments import max_drift, mean_drift, total_momentum
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine


def make_sim(system, solver="fmm", method="A", nprocs=4, **kwargs):
    machine = Machine(nprocs)
    defaults = dict(
        solver=solver,
        method=method,
        dt=0.05,
        distribution="random",
        track_energy=True,
        seed=2,
    )
    if solver == "fmm":
        defaults["solver_kwargs"] = {"order": 4, "depth": 3, "lattice_shells": 2}
    defaults.update(kwargs)
    return Simulation(machine, system, SimulationConfig(**defaults))


class TestProtocol:
    def test_step_before_initialize(self, small_system):
        sim = make_sim(small_system)
        with pytest.raises(RuntimeError, match="initialize"):
            sim.step()

    def test_double_initialize(self, small_system):
        sim = make_sim(small_system)
        sim.initialize()
        with pytest.raises(RuntimeError, match="already"):
            sim.initialize()

    def test_records_accumulate(self, small_system):
        sim = make_sim(small_system)
        recs = sim.run(3)
        assert len(recs) == 4  # initial + 3 steps
        assert [r.step for r in recs] == [0, 1, 2, 3]
        assert all(r.total_time > 0 for r in recs)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            SimulationConfig(method="C")

    def test_bad_dynamics(self):
        with pytest.raises(ValueError):
            SimulationConfig(dynamics="magic")


class TestPhysics:
    @pytest.mark.parametrize("solver", ["fmm", "p2nfft"])
    def test_energy_conservation(self, medium_system, solver):
        sim = make_sim(medium_system, solver=solver, nprocs=4)
        recs = sim.run(4)
        E = [r.energy for r in recs]
        assert abs(E[-1] - E[0]) / abs(E[0]) < 1e-4

    def test_momentum_stays_zero(self, medium_system):
        sim = make_sim(medium_system, solver="p2nfft", nprocs=4)
        sim.run(3)
        p = total_momentum(sim.vel)
        # per-step force sums are ~1e-2 relative to individual forces
        scale = max(abs(v).max() for v in sim.vel if v.size) * medium_system.n
        assert np.abs(p).max() < 1e-2 * scale

    def test_solvers_agree(self, medium_system):
        simf = make_sim(medium_system, solver="fmm", nprocs=4)
        simp = make_sim(medium_system, solver="p2nfft", nprocs=4)
        Ef = simf.run(1)[0].energy
        Ep = simp.run(1)[0].energy
        assert Ef == pytest.approx(Ep, rel=5e-3)


class TestMethodEquivalence:
    @pytest.mark.parametrize("solver", ["fmm", "p2nfft"])
    def test_a_and_b_produce_identical_trajectories(self, small_system, solver):
        """Method B changes only the data distribution, never the physics."""
        simA = make_sim(small_system, solver=solver, method="A")
        simB = make_sim(small_system, solver=solver, method="B")
        simA.run(3)
        simB.run(3)
        a = simA.gather_state()
        b = simB.gather_state()
        np.testing.assert_array_equal(a["ids"], b["ids"])
        np.testing.assert_allclose(a["pos"], b["pos"], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a["vel"], b["vel"], rtol=1e-10, atol=1e-12)

    def test_b_move_also_identical(self, small_system):
        simA = make_sim(small_system, solver="fmm", method="A")
        simM = make_sim(small_system, solver="fmm", method="B+move")
        simA.run(3)
        simM.run(3)
        a = simA.gather_state()
        m = simM.gather_state()
        np.testing.assert_allclose(a["pos"], m["pos"], rtol=1e-12, atol=1e-12)
        # the movement-limited strategies were actually used
        strategies = [r.strategy for r in simM.records[1:]]
        assert any(s.startswith("merge") for s in strategies)

    def test_ids_conserved(self, small_system):
        sim = make_sim(small_system, method="B")
        sim.run(3)
        st = sim.gather_state()
        np.testing.assert_array_equal(st["ids"], np.arange(small_system.n))


class TestMethodBehaviour:
    def test_method_a_never_changes(self, small_system):
        sim = make_sim(small_system, method="A")
        sim.run(2)
        assert all(not r.changed for r in sim.records)

    def test_method_b_changes(self, small_system):
        sim = make_sim(small_system, method="B")
        sim.run(2)
        assert all(r.changed for r in sim.records)

    def test_max_move_recorded(self, small_system):
        sim = make_sim(small_system)
        recs = sim.run(2)
        assert recs[0].max_move == 0.0
        assert recs[1].max_move > 0

    def test_phase_records(self, small_system):
        sim = make_sim(small_system, method="B")
        recs = sim.run(1)
        step = recs[1]
        assert step.phase_time("sort") > 0
        assert step.phase_time("resort") > 0
        assert step.phase_time("restore") == 0

    def test_brownian_dynamics(self, small_system):
        sim = make_sim(
            small_system,
            method="B",
            dynamics="brownian",
            brownian_step=0.3,
            track_energy=False,
            solver_kwargs={"order": 3, "depth": 3, "lattice_shells": 2, "compute": "skip"},
        )
        sim.run(3)
        for rec in sim.records[2:]:
            assert rec.max_move == pytest.approx(0.3, rel=0.05)

    def test_drift_observables(self, small_system):
        sim = make_sim(
            small_system,
            dynamics="brownian",
            brownian_step=0.2,
            track_energy=False,
            solver_kwargs={"order": 3, "depth": 3, "lattice_shells": 2, "compute": "skip"},
        )
        initial = sim.gather_state()["pos"]
        sim.run(5)
        final = sim.gather_state()["pos"]
        assert 0 < mean_drift(initial, final, sim.system.box) <= max_drift(
            initial, final, sim.system.box
        )
        assert max_drift(initial, final, sim.system.box) <= 5 * 0.2 + 1e-9
