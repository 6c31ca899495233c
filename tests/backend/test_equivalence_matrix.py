"""Cross-backend differential matrix: process == inprocess, bit for bit.

The backend contract (:mod:`repro.backend`) is that an execution engine may
only change *where payload bytes live in transit* — never what arrives, in
what order the coordinator observes it, or what modeled time it costs.
These tests hold the ``process`` engine to that contract across the full
solver × redistribution-method grid by comparing three independent
bitwise observables against the in-process reference:

* ``state_fingerprint`` — per-component digests of the physics state,
* ``ledger_fingerprint`` — the communication auditor's per-phase ledgers,
* ``step_breakdown_hex`` — per-step phase times as ``float.hex`` patterns
  (any drift in modeled-cost charging shows up here first).

Plus two hard cells: the clustered two-cluster system with the dynamic
load balancer active (the weighted-repartition exchange path), and a
checkpoint captured *under* the process engine restored *under* the
in-process engine (engines are host machinery, not simulation state).
"""

from __future__ import annotations

import pytest

from repro.ckpt import capture_checkpoint, restore_simulation
from repro.md.distributions import clustered_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from repro.verify.dst import ledger_fingerprint
from repro.verify.invariants import state_fingerprint
from repro.verify.trajectory import step_breakdown_hex

SOLVERS = ("direct", "ewald", "fmm", "p2nfft")
METHODS = ("A", "B", "B+move")

NPROCS = 4
N_PARTICLES = 48
STEPS = 2


def run_cell(solver, method, backend, *, distribution="homogeneous", steps=STEPS):
    """One trajectory; returns its three bitwise observables."""
    machine = Machine(NPROCS)
    solver_kwargs = {}
    balance_kwargs = {}
    if distribution == "clustered":
        system = clustered_system("two-cluster", N_PARTICLES, seed=0)
        balance_kwargs = dict(
            load_balance="dynamic",
            balance_trigger=1.02,
            balance_rearm=1.01,
            capacity_factor=6.0,
        )
        if solver == "fmm":
            solver_kwargs["work_model"] = "density"
    else:
        system = silica_melt_system(N_PARTICLES, seed=0)
    config = SimulationConfig(
        solver=solver,
        method=method,
        seed=0,
        track_energy=True,
        solver_kwargs=solver_kwargs,
        backend=backend,
        **balance_kwargs,
    )
    sim = Simulation(machine, system, config)
    auditor = enable_auditing(machine)
    sim.initialize()
    for _ in range(steps):
        sim.step()
    out = (
        state_fingerprint(sim),
        ledger_fingerprint(auditor),
        step_breakdown_hex(sim.records),
    )
    sim.fcs.destroy()
    return out


def assert_cells_identical(reference, candidate, label):
    ref_state, ref_ledger, ref_times = reference
    got_state, got_ledger, got_times = candidate
    assert got_state == ref_state, f"{label}: state fingerprint moved"
    assert got_ledger == ref_ledger, f"{label}: ledger fingerprint moved"
    assert got_times == ref_times, f"{label}: modeled step times moved"


@pytest.mark.timeout(240)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_process_backend_matches_inprocess(solver, method, process_backend):
    """solver × method grid: every observable is backend-independent."""
    reference = run_cell(solver, method, None)
    candidate = run_cell(solver, method, process_backend)
    assert_cells_identical(reference, candidate, f"{solver}/{method}/process")


@pytest.mark.timeout(240)
def test_inprocess_spec_matches_default():
    """``backend="inprocess"`` is the explicit spelling of the default."""
    reference = run_cell("direct", "B", None)
    candidate = run_cell("direct", "B", "inprocess")
    assert_cells_identical(reference, candidate, "direct/B/inprocess")


@pytest.mark.timeout(240)
@pytest.mark.parametrize("method", ("A", "B+move"))
def test_clustered_dynamic_balance_cell(method, process_backend):
    """Two-cluster system + dynamic load balancer: the weighted repartition
    exchanges also ride the backend transport and must not perturb it."""
    reference = run_cell("fmm", method, None, distribution="clustered", steps=3)
    candidate = run_cell(
        "fmm", method, process_backend, distribution="clustered", steps=3
    )
    assert_cells_identical(reference, candidate, f"fmm/{method}/clustered")


@pytest.mark.timeout(240)
def test_checkpoint_crosses_backends(process_backend):
    """Save under ``process``, restore under inprocess: same trajectory.

    A checkpoint records the engine *spec* (host machinery, not state), so
    a restore is free to run under any engine — and must land on the same
    fingerprints either way.
    """
    # uninterrupted reference, no backend
    machine = Machine(NPROCS)
    system = silica_melt_system(N_PARTICLES, seed=0)
    config = SimulationConfig(solver="fmm", method="B", seed=0, track_energy=True)
    ref = Simulation(machine, system, config)
    ref.initialize()
    for _ in range(4):
        ref.step()
    ref_fp = state_fingerprint(ref)
    ref.fcs.destroy()

    # run the first half under the process engine, checkpoint there
    machine = Machine(NPROCS)
    system = silica_melt_system(N_PARTICLES, seed=0)
    config = SimulationConfig(
        solver="fmm", method="B", seed=0, track_energy=True,
        backend=process_backend,
    )
    sim = Simulation(machine, system, config)
    sim.initialize()
    sim.step()
    sim.step()
    ckpt = capture_checkpoint(sim)
    sim.fcs.destroy()
    assert ckpt.config["backend"] == "process"

    # restore under the in-process engine and finish the trajectory
    ckpt.config["backend"] = None
    resumed = restore_simulation(ckpt, machine=Machine(NPROCS))
    assert resumed.machine.backend is None
    resumed.step()
    resumed.step()
    assert state_fingerprint(resumed) == ref_fp
    resumed.fcs.destroy()
