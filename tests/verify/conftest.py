"""Fixtures for the verification-subsystem tests."""

import pytest

from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify import InvariantChecker, enable_auditing


@pytest.fixture
def sim_factory():
    """Build a small audited simulation plus its invariant checker."""

    def build(solver="fmm", method="B", nprocs=4, n=24, seed=2, **cfg_kwargs):
        machine = Machine(nprocs)
        sim = Simulation(
            machine,
            silica_melt_system(n, seed=seed),
            SimulationConfig(
                solver=solver, method=method, distribution="random",
                seed=seed, **cfg_kwargs,
            ),
        )
        auditor = enable_auditing(machine)
        checker = InvariantChecker(sim)
        return sim, checker, auditor

    return build
