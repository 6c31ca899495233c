"""FMM tree and parallel solver: accuracy vs references, parallel
consistency, redistribution contracts."""

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.md.distributions import distribute
from repro.simmpi.machine import Machine
from repro.solvers.direct import direct_sum
from repro.solvers.ewald_ref import ewald_sum
from repro.solvers.fmm.tree import FMMTree, leaf_index_of_positions
from conftest import random_particle_set
from instruments import fmm_evaluate


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(4)
    n = 400
    L = 8.0
    pos = rng.uniform(0, L, (n, 3))
    q = np.ones(n)
    q[n // 2:] = -1
    return pos, q, np.array([L, L, L])


class TestTreeOpen:
    def test_accuracy_converges(self, cloud):
        pos, q, box = cloud
        pd, fd = direct_sum(pos, q)
        errs = []
        for p in (3, 5):
            tree = FMMTree(3, p, box, np.zeros(3), periodic=False)
            pot, field, _ = fmm_evaluate(tree, pos, q)
            errs.append(np.sqrt(((pot - pd) ** 2).mean()))
        assert errs[1] < errs[0] / 3
        assert errs[1] / np.sqrt((pd ** 2).mean()) < 3e-3

    def test_field_accuracy(self, cloud):
        pos, q, box = cloud
        _, fd = direct_sum(pos, q)
        tree = FMMTree(3, 5, box, np.zeros(3), periodic=False)
        _, field, _ = fmm_evaluate(tree, pos, q)
        rel = np.sqrt(((field - fd) ** 2).sum(1).mean() / (fd ** 2).sum(1).mean())
        assert rel < 2e-3

    def test_order_independent_of_input_order(self, cloud):
        pos, q, box = cloud
        tree = FMMTree(3, 4, box, np.zeros(3), periodic=False)
        pot1, _, _ = fmm_evaluate(tree, pos, q)
        perm = np.random.default_rng(0).permutation(pos.shape[0])
        pot2, _, _ = fmm_evaluate(tree, pos[perm], q[perm])
        np.testing.assert_allclose(pot2, pot1[perm], rtol=1e-12)

    def test_stats_populated(self, cloud):
        pos, q, box = cloud
        tree = FMMTree(3, 3, box, np.zeros(3), periodic=False)
        _, _, stats = fmm_evaluate(tree, pos, q)
        assert stats.near_pairs > 0
        assert stats.m2l_ops > 0
        assert stats.p2m_particles == pos.shape[0]


class TestTreePeriodic:
    def test_matches_ewald_up_to_surface_term(self, cloud):
        """The shell-summed (vacuum) FMM differs from tinfoil Ewald by the
        known dipole surface term; after correction they agree."""
        pos, q, box = cloud
        pe, fe = ewald_sum(pos, q, box, accuracy=1e-10)
        tree = FMMTree(3, 5, box, np.zeros(3), periodic=True, lattice_shells=3)
        pot, field, _ = fmm_evaluate(tree, pos, q)
        V = box.prod()
        D = (q[:, None] * pos).sum(0)
        pot_tf = pot - 4 * np.pi / (3 * V) * (pos @ D)
        field_tf = field + 4 * np.pi / (3 * V) * D
        dp = pot_tf - pe
        dp -= dp.mean()
        assert np.sqrt((dp ** 2).mean() / (pe ** 2).mean()) < 1e-2
        df = field_tf - fe
        assert np.sqrt((df ** 2).sum(1).mean() / (fe ** 2).sum(1).mean()) < 5e-3

    def test_energy_accuracy(self, cloud):
        pos, q, box = cloud
        pe, _ = ewald_sum(pos, q, box, accuracy=1e-10)
        tree = FMMTree(3, 5, box, np.zeros(3), periodic=True, lattice_shells=3)
        pot, _, _ = fmm_evaluate(tree, pos, q)
        V = box.prod()
        D = (q[:, None] * pos).sum(0)
        pot_tf = pot - 4 * np.pi / (3 * V) * (pos @ D)
        E = 0.5 * (q * pot_tf).sum()
        Ee = 0.5 * (q * pe).sum()
        # |Ee| of a small random cloud is heavily cancellation-reduced, so
        # the relative tolerance is looser than the per-potential accuracy;
        # the dense melt systems of the MD tests reach ~1e-3
        assert abs(E - Ee) / abs(Ee) < 6e-3

    def test_lattice_shells_converge(self, cloud):
        pos, q, box = cloud
        pe, _ = ewald_sum(pos, q, box, accuracy=1e-10)
        V = box.prod()
        D = (q[:, None] * pos).sum(0)
        errs = []
        for S in (1, 3):
            tree = FMMTree(3, 4, box, np.zeros(3), periodic=True, lattice_shells=S)
            pot, _, _ = fmm_evaluate(tree, pos, q)
            pot_tf = pot - 4 * np.pi / (3 * V) * (pos @ D)
            dp = pot_tf - pe
            dp -= dp.mean()
            errs.append(np.sqrt((dp ** 2).mean()))
        assert errs[1] < errs[0]

    def test_periodic_requires_depth3(self, cloud):
        _, _, box = cloud
        with pytest.raises(ValueError, match="depth >= 3"):
            FMMTree(2, 3, box, np.zeros(3), periodic=True)


class TestLeafIndex:
    def test_clamp_vs_wrap(self):
        box = np.array([4.0, 4.0, 4.0])
        pos = np.array([[4.5, 1.0, 1.0]])
        wrapped = leaf_index_of_positions(pos, np.zeros(3), box, 2, True)
        clamped = leaf_index_of_positions(pos, np.zeros(3), box, 2, False)
        assert wrapped[0] != clamped[0]


class TestParallelSolver:
    def run_parallel(self, system, nprocs, method="A", **kwargs):
        m = Machine(nprocs)
        pset, owner = random_particle_set(system, nprocs, seed=5)
        fcs = fcs_init("fmm", m, order=4, depth=3, lattice_shells=2, **kwargs)
        fcs.set_common(box=system.box, offset=system.offset, periodic=True)
        if method == "B":
            fcs.set_resort(True)
        fcs.tune(pset)
        report = fcs.run(pset)
        return m, pset, owner, report, fcs

    def test_parallel_matches_sequential(self, small_system):
        """The distributed computation (halo exchange, per-rank near field)
        must reproduce the single-tree evaluation exactly."""
        m, pset, owner, report, _ = self.run_parallel(small_system, 6)
        tree = FMMTree(3, 4, small_system.box, small_system.offset, True, lattice_shells=2)
        pot_seq, field_seq, _ = fmm_evaluate(tree, small_system.pos, small_system.q)
        # apply the solver's tinfoil correction to the sequential result
        V = small_system.box.prod()
        D = (small_system.q[:, None] * small_system.pos).sum(0)
        pot_seq = pot_seq - 4 * np.pi / (3 * V) * (small_system.pos @ D)
        got = np.concatenate(pset.pot)
        expected = np.concatenate([pot_seq[owner == r] for r in range(6)])
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_nprocs_invariance(self, small_system):
        results = []
        for P in (1, 3, 8):
            m, pset, owner, _, _ = self.run_parallel(small_system, P)
            full = np.empty(small_system.n)
            offs = 0
            order = np.argsort(np.concatenate([np.flatnonzero(owner == r) for r in range(P)]))
            full = np.concatenate(pset.pot)[order]
            results.append(full)
        np.testing.assert_allclose(results[1], results[0], rtol=1e-10)
        np.testing.assert_allclose(results[2], results[0], rtol=1e-10)

    def test_method_b_same_results_changed_order(self, small_system):
        mA, psetA, ownerA, _, _ = self.run_parallel(small_system, 4, "A")
        mB, psetB, ownerB, repB, _ = self.run_parallel(small_system, 4, "B")
        assert repB.changed
        # match by position: each particle's potential identical
        posA = np.concatenate(psetA.pos)
        posB = np.concatenate(psetB.pos)
        potA = np.concatenate(psetA.pot)
        potB = np.concatenate(psetB.pot)
        kA = np.round(posA * 1e9).astype(np.int64)
        kB = np.round(posB * 1e9).astype(np.int64)
        iA = np.lexsort(kA.T)
        iB = np.lexsort(kB.T)
        np.testing.assert_array_equal(kA[iA], kB[iB])
        np.testing.assert_allclose(potA[iA], potB[iB], rtol=1e-10)

    def test_skip_mode_zero_results_real_redistribution(self, small_system):
        m, pset, owner, report, fcs = self.run_parallel(
            small_system, 4, "B", compute="skip"
        )
        assert report.changed
        assert np.concatenate(pset.pot).max() == 0.0
        # redistribution really happened: counts changed per rank order
        assert m.trace.phase("sort").time > 0
        assert m.trace.phase("near").time > 0  # modeled compute charged

    def test_counts_preserved(self, small_system):
        m, pset, owner, report, _ = self.run_parallel(small_system, 4, "B")
        old = np.bincount(owner, minlength=4)
        np.testing.assert_array_equal(report.new_counts, old)
