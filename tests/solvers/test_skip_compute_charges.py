"""Skipping the force arithmetic changes what is copied, never what is charged.

In ``compute="skip"`` the FMM halo copies and the grid solvers' ghost copies
feed nothing a later phase reads, so the transport delivers only what is
read: no halo row, and of the grid placement the n owner copies.  The
exchanges themselves are the same ones: every ``sort`` and ``halo`` message
and byte is traced and audited exactly as when every copy is delivered.
"""

import numpy as np
import pytest

from repro.core import fine_grained
from repro.core.handle import fcs_init
from repro.simmpi.machine import Machine
from repro.solvers.fmm import solver as fmm_solver
from repro.solvers.p2nfft import solver as p2nfft_solver
from repro.verify.audit import enable_auditing
from conftest import random_particle_set

P = 8
PARAMS = {"fmm": dict(order=3, depth=3, lattice_shells=1), "p2nfft": {}, "ewald": {}}
#: the exchanges a placement makes (the FMM's sort and halo, the grid
#: solvers' one ghost-duplicating sort)
EXCHANGES = ("sort", "halo")


def one_run(system, solver, method, compute, monkeypatch):
    """One audited ``fcs_run``; returns the machine and the rows each
    placement exchange delivered, by phase."""
    particles, _owner = random_particle_set(system, P, seed=5)
    machine = Machine(P)
    auditor = enable_auditing(machine)
    fcs = fcs_init(solver, machine, compute=compute, **PARAMS[solver])
    fcs.set_common(box=system.box, offset=system.offset, periodic=True)
    fcs.set_resort(method == "B")
    fcs.tune(particles)
    delivered = {}
    for module in (fine_grained, fmm_solver, p2nfft_solver):
        original = module.redistribute_flat

        def spy(machine, block, route, phase, comm, original=original):
            received = original(machine, block, route, phase, comm)
            if phase in EXCHANGES:
                delivered[phase] = delivered.get(phase, 0) + received.data.n
            return received

        monkeypatch.setattr(module, "redistribute_flat", spy)
    fcs.run(particles)
    monkeypatch.undo()
    charged = {
        phase: (
            machine.trace.phase(phase).messages,
            machine.trace.phase(phase).bytes,
            auditor.ledger[phase].state_dict() if phase in auditor.ledger else None,
        )
        for phase in EXCHANGES
    }
    return charged, delivered


@pytest.mark.parametrize("method", ["A", "B"])
@pytest.mark.parametrize("solver", ["fmm", "p2nfft", "ewald"])
def test_skip_charges_every_copy_and_delivers_only_what_is_read(
    small_system, solver, method, monkeypatch
):
    n = small_system.n
    full_charged, full_delivered = one_run(small_system, solver, method, "full", monkeypatch)
    skip_charged, skip_delivered = one_run(small_system, solver, method, "skip", monkeypatch)
    assert skip_charged == full_charged
    assert full_charged["sort"][0] > 0 and full_charged["sort"][1] > 0
    assert skip_delivered["sort"] == n
    if solver == "fmm":
        assert full_charged["halo"][1] > 0
        assert full_delivered["halo"] > 0 and skip_delivered["halo"] == 0
        assert full_delivered["sort"] == n
    else:
        assert "halo" not in skip_delivered
        # the ghosts travel only when the near field reads them
        assert full_delivered["sort"] > n
