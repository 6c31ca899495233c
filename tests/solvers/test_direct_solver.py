"""The parallel direct solver (baseline) through the library interface."""

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.simmpi.machine import Machine
from repro.solvers.ewald_ref import ewald_sum
from conftest import random_particle_set


def test_matches_ewald(small_system):
    m = Machine(4)
    pset, owner = random_particle_set(small_system, 4)
    fcs = fcs_init("direct", m)
    fcs.set_common(box=small_system.box, periodic=True)
    fcs.tune(pset)
    report = fcs.run(pset)
    assert not report.changed
    pe, _ = ewald_sum(small_system.pos, small_system.q, small_system.box, accuracy=1e-10)
    got = np.concatenate(pset.pot)
    expected = np.concatenate([pe[owner == r] for r in range(4)])
    np.testing.assert_allclose(got, expected, rtol=1e-7)


def test_never_resorts(small_system):
    m = Machine(4)
    pset, _ = random_particle_set(small_system, 4)
    fcs = fcs_init("direct", m)
    fcs.set_common(box=small_system.box, periodic=True)
    fcs.set_resort(True)
    fcs.tune(pset)
    report = fcs.run(pset)
    assert not report.changed
    assert not fcs.resort_availability()


def test_open_boundaries(small_system):
    from repro.solvers.direct import direct_sum

    m = Machine(2)
    pset, owner = random_particle_set(small_system, 2)
    fcs = fcs_init("direct", m)
    fcs.set_common(box=small_system.box, periodic=False)
    fcs.tune(pset)
    fcs.run(pset)
    pd, _ = direct_sum(small_system.pos, small_system.q)
    got = np.concatenate(pset.pot)
    expected = np.concatenate([pd[owner == r] for r in range(2)])
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_charges_gather_comm(small_system):
    m = Machine(4)
    pset, _ = random_particle_set(small_system, 4)
    fcs = fcs_init("direct", m)
    fcs.set_common(box=small_system.box, periodic=True)
    fcs.tune(pset)
    fcs.run(pset)
    assert m.trace.phase("gather").time > 0
    assert m.trace.phase("near").time > 0
