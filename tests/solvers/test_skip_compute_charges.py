"""Skipping the force arithmetic changes what is copied, never what is charged.

In ``compute="skip"`` the FMM halo copies and the grid solvers' ghost copies
feed nothing a later phase reads, so the transport delivers only what is
read: no halo row, and of the grid placement the n owner copies.  The
exchanges themselves are the same ones: every ``sort`` and ``halo`` message
and byte is traced and audited exactly as when every copy is delivered.
The FMM's partition sort delivers no row in either mode: it knows every
row's slot, is charged from its message counts and gathers the rows there
itself.
"""

import importlib

import numpy as np
import pytest

from repro.core import fine_grained
from repro.core.handle import fcs_init
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing
from conftest import random_particle_set

#: the module (``repro.sorting.partition_sort`` the attribute is the function)
partition_sort = importlib.import_module("repro.sorting.partition_sort")
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
    # every placement exchange goes through send_route: redistribute_flat's
    # (the FMM halo, the grid placement) and the partition sort's own
    for module in (fine_grained, partition_sort):
        original = module.send_route

        def spy(machine, route, block, phase, comm, original=original):
            columns, recv_offsets = original(machine, route, block, phase, comm)
            if phase in EXCHANGES:
                delivered[phase] = delivered.get(phase, 0) + int(recv_offsets[-1])
            return columns, recv_offsets

        monkeypatch.setattr(module, "send_route", spy)
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
    if solver == "fmm":
        assert full_charged["halo"][1] > 0
        assert full_delivered["halo"] > 0 and skip_delivered["halo"] == 0
        assert full_delivered["sort"] == skip_delivered["sort"] == 0
    else:
        assert skip_delivered["sort"] == n
        assert "halo" not in skip_delivered
        # the ghosts travel only when the near field reads them
        assert full_delivered["sort"] > n
