"""The fcs_* library interface: protocol, method B gating, errors."""

import numpy as np
import pytest

from repro.core.handle import FCS, available_solvers, fcs_init
from repro.core.particles import ParticleSet
from repro.simmpi.machine import Machine
from conftest import random_particle_set


@pytest.fixture
def setup(small_system):
    m = Machine(4)
    pset, owner = random_particle_set(small_system, 4, seed=2)
    fcs = fcs_init("fmm", m, order=3, depth=3, lattice_shells=2)
    fcs.set_common(box=small_system.box, offset=small_system.offset, periodic=True)
    return m, pset, fcs, small_system


class TestRegistry:
    def test_available(self):
        names = available_solvers()
        assert {"fmm", "p2nfft", "direct"} <= set(names)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown solver"):
            fcs_init("pppm", Machine(2))

    def test_method_property(self, setup):
        _, _, fcs, _ = setup
        assert fcs.method == "fmm"


class TestProtocol:
    def test_run_before_tune_fails(self, setup):
        m, pset, fcs, sys_ = setup
        with pytest.raises(RuntimeError, match="fcs_tune"):
            fcs.run(pset)

    def test_tune_before_set_common_fails(self, small_system):
        m = Machine(4)
        fcs = fcs_init("fmm", m)
        pset, _ = random_particle_set(small_system, 4)
        with pytest.raises(RuntimeError, match="set_common"):
            fcs.tune(pset)

    def test_destroyed_handle_unusable(self, setup):
        _, pset, fcs, _ = setup
        fcs.destroy()
        with pytest.raises(RuntimeError, match="destroyed"):
            fcs.set_resort(True)

    def test_context_manager(self, setup):
        _, _, fcs, _ = setup
        with fcs as h:
            assert h is fcs
        with pytest.raises(RuntimeError):
            fcs.tune(None)

    def test_negative_max_move(self, setup):
        _, _, fcs, _ = setup
        with pytest.raises(ValueError):
            fcs.set_max_particle_move(-0.5)


class TestMethodA:
    def test_positions_and_order_unchanged(self, setup):
        m, pset, fcs, sys_ = setup
        before = [p.copy() for p in pset.pos]
        fcs.tune(pset)
        report = fcs.run(pset)
        assert not report.changed
        assert not fcs.resort_availability()
        for b, a in zip(before, pset.pos):
            np.testing.assert_array_equal(b, a)

    def test_resort_unavailable(self, setup):
        m, pset, fcs, _ = setup
        fcs.tune(pset)
        fcs.run(pset)
        with pytest.raises(RuntimeError, match="resort indices unavailable"):
            fcs.resort([np.zeros((n, 3)) for n in pset.counts()])


class TestMethodB:
    def test_changed_order_returned(self, setup):
        m, pset, fcs, _ = setup
        fcs.set_resort(True)
        fcs.tune(pset)
        report = fcs.run(pset)
        assert report.changed
        assert fcs.resort_availability()
        assert report.new_counts is not None

    def test_resort_floats_and_ints(self, setup):
        m, pset, fcs, _ = setup
        fcs.set_resort(True)
        fcs.tune(pset)
        old_pos = [p.copy() for p in pset.pos]
        fcs.run(pset)
        # one fused exchange for both columns through the unified API
        ids_in = [np.arange(p.shape[0], dtype=np.int64) for p in old_pos]
        tagged, ids_out = fcs.resort(([p * 2.0 for p in old_pos], ids_in))
        for r in range(4):
            np.testing.assert_allclose(tagged[r], pset.pos[r] * 2.0)
        assert sum(i.shape[0] for i in ids_out) == sum(i.shape[0] for i in ids_in)

    def test_deprecated_shims_removed(self, setup):
        """The v1 per-dtype entry points are gone (API v2, docs/architecture.md)."""
        _, _, fcs, _ = setup
        for name in ("resort_floats", "resort_ints", "resort_bytes"):
            assert not hasattr(fcs, name)

    def test_resort_wrong_counts(self, setup):
        m, pset, fcs, _ = setup
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.run(pset)
        with pytest.raises(ValueError, match="original particle"):
            fcs.resort([np.zeros((3, 3)) for _ in range(4)])

    def test_capacity_fallback_restores(self, small_system):
        """If any rank's arrays are too small, the original order and
        distribution must be restored (Sect. III-B)."""
        m = Machine(4)
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 4, small_system.n)
        pos = [small_system.pos[owner == r].copy() for r in range(4)]
        q = [small_system.q[owner == r].copy() for r in range(4)]
        counts = [p.shape[0] for p in pos]
        # capacities exactly at the current counts: any growth must fail
        pset = ParticleSet(pos, q, capacities=counts)
        fcs = fcs_init("fmm", m, order=3, depth=3, lattice_shells=2)
        fcs.set_common(box=small_system.box, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        report = fcs.run(pset)
        # the FMM preserves counts, so it may or may not fit; the contract:
        # changed == resort availability and positions unchanged otherwise
        assert report.changed == fcs.resort_availability()
        if not report.changed:
            for b, a in zip(pos, pset.pos):
                np.testing.assert_array_equal(b, a)

    def test_max_move_consumed_per_run(self, setup):
        m, pset, fcs, _ = setup
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.run(pset)
        fcs.set_max_particle_move(0.01)
        rep1 = fcs.run(pset)
        assert rep1.strategy in ("merge", "merge+fallback")
        rep2 = fcs.run(pset)  # bound not re-armed
        assert rep2.strategy == "partition"
