"""End-to-end property tests (hypothesis): the coupled pipeline preserves
its invariants for arbitrary small systems, process counts and methods."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine

_SYSTEMS = {}


def get_system(n):
    if n not in _SYSTEMS:
        _SYSTEMS[n] = silica_melt_system(n, seed=n)
    return _SYSTEMS[n]


@given(
    n=st.sampled_from([128, 256, 512]),
    nprocs=st.integers(min_value=1, max_value=9),
    method=st.sampled_from(["A", "B", "B+move", "adaptive"]),
    distribution=st.sampled_from(["single", "random", "grid"]),
    solver=st.sampled_from(["fmm", "p2nfft"]),
    steps=st.integers(min_value=1, max_value=3),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_pipeline_invariants(n, nprocs, method, distribution, solver, steps):
    """For any configuration:

    * every particle identity survives (a permutation, never lost/duplicated),
    * particle data stays finite and positions stay inside the box,
    * the total particle count is preserved on every rank set,
    * clocks are monotone and the trace accounts non-negative costs.
    """
    system = get_system(n)
    cfg = SimulationConfig(
        solver=solver,
        method=method,
        distribution=distribution,
        dynamics="brownian",
        brownian_step=0.1,
        adapt_every=2,
        solver_kwargs=(
            {"compute": "skip", "order": 3, "depth": 3, "lattice_shells": 1}
            if solver == "fmm"
            else {"compute": "skip"}
        ),
        seed=3,
    )
    machine = Machine(nprocs)
    sim = Simulation(machine, system, cfg)
    sim.run(steps)

    state = sim.gather_state()
    np.testing.assert_array_equal(state["ids"], np.arange(n))
    assert np.isfinite(state["pos"]).all()
    assert np.all(state["pos"] >= system.offset - 1e-9)
    assert np.all(state["pos"] <= system.offset + system.box + 1e-9)
    assert sim.particles.total() == n
    assert machine.elapsed() >= 0
    for phase in machine.trace.labels():
        stats = machine.trace.phase(phase)
        assert stats.time >= 0 and stats.bytes >= 0 and stats.messages >= 0
    # charges remain exactly +-1 and globally neutral
    q = np.concatenate(sim.particles.q)
    assert set(np.unique(q)) <= {-1.0, 1.0}
    assert q.sum() == 0.0
