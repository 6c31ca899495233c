"""Solver-specific setter functions and the machine imbalance diagnostic."""

import numpy as np
import pytest

from repro.core.handle import fcs_init
from repro.md.distributions import distribute
from repro.simmpi.machine import Machine
from conftest import random_particle_set


class TestFMMSetters:
    def test_set_order_depth(self, small_system):
        m = Machine(2)
        fcs = fcs_init("fmm", m, lattice_shells=1)
        fcs.solver.set_order(3)
        fcs.solver.set_depth(3)
        fcs.set_common(box=small_system.box, periodic=True)
        pset, _ = random_particle_set(small_system, 2)
        fcs.tune(pset)
        assert fcs.solver.tree.p == 3
        assert fcs.solver.tree.depth == 3

    def test_invalid_order(self, small_system):
        m = Machine(2)
        fcs = fcs_init("fmm", m)
        with pytest.raises(ValueError):
            fcs.solver.set_order(1)

    def test_retune_after_a_setter_picks_the_right_tables(self, small_system):
        """The shared tree is keyed by the tuned values: a setter followed by
        a retune may not keep (or be handed) the tree of the old ones, and
        going back gives tables equal to the first."""
        fcs = fcs_init("fmm", Machine(2), order=3, depth=3, lattice_shells=1)
        fcs.set_common(box=small_system.box, periodic=True)
        pset, _ = random_particle_set(small_system, 2)
        fcs.tune(pset)
        first = fcs.solver.tree
        twin = fcs_init("fmm", Machine(2), order=3, depth=3, lattice_shells=1)
        twin.set_common(box=small_system.box.copy(), periodic=True)
        twin.tune(pset)
        assert twin.solver.tree is first
        seen = {(first.p, first.depth)}
        retunes = [("set_order", 4), ("set_depth", 4), ("set_order", 3), ("set_depth", 3)]
        for setter, value in retunes:
            getattr(fcs.solver, setter)(value)
            with pytest.raises(RuntimeError):
                fcs.run(pset)
            fcs.tune(pset)
            tree = fcs.solver.tree
            expected = {"set_order": tree.p, "set_depth": tree.depth}[setter]
            assert expected == value
            assert tree.expansion.p == tree.p and tree.nside_leaf == 1 << tree.depth
            assert tree._m2l_by_level[tree.depth].shape[1] == tree.ncoef
            seen.add((tree.p, tree.depth))
        assert seen == {(3, 3), (4, 3), (4, 4), (3, 4)}
        assert (tree.p, tree.depth) == (first.p, first.depth)
        assert tree._lattice_K.tobytes() == first._lattice_K.tobytes()
        assert twin.solver.tree is first  # a holder keeps its tables through all of it


class TestP2NFFTSetters:
    def test_set_cutoff_alpha_mesh(self, small_system):
        m = Machine(2)
        fcs = fcs_init("p2nfft", m)
        fcs.solver.set_cutoff(3.0)
        fcs.solver.set_alpha(0.9)
        fcs.solver.set_mesh_size(16)
        fcs.set_common(box=small_system.box, periodic=True)
        pset, _ = random_particle_set(small_system, 2)
        fcs.tune(pset)
        assert fcs.solver.rc == 3.0
        assert fcs.solver.alpha == 0.9
        assert fcs.solver.mesh_size == 16

    def test_retune_after_a_setter_picks_the_right_tables(self, small_system):
        """The shared mesh is keyed by the tuned values: the cutoff moves the
        tuned alpha and mesh size, the two overrides fix them."""
        fcs = fcs_init("p2nfft", Machine(2), cutoff=3.0)
        fcs.set_common(box=small_system.box, periodic=True)
        pset, _ = random_particle_set(small_system, 2)
        fcs.tune(pset)
        first = fcs.solver.mesh
        twin = fcs_init("p2nfft", Machine(2), cutoff=3.0)
        twin.set_common(box=small_system.box.copy(), periodic=True)
        twin.tune(pset)
        assert twin.solver.mesh is first
        meshes = [first]
        for setter, value in [("set_cutoff", 4.0), ("set_alpha", 0.9), ("set_mesh_size", 12)]:
            getattr(fcs.solver, setter)(value)
            with pytest.raises(RuntimeError):
                fcs.run(pset)
            fcs.tune(pset)
            mesh = fcs.solver.mesh
            assert all(mesh is not m for m in meshes), setter
            assert (mesh.M, mesh.alpha) == (fcs.solver.mesh_size, fcs.solver.alpha)
            assert mesh.influence.shape == (mesh.M,) * 3
            meshes.append(mesh)
        assert (mesh.M, mesh.alpha) == (12, 0.9)
        for setter in ("set_cutoff", "set_alpha", "set_mesh_size"):
            getattr(fcs.solver, setter)(None if setter != "set_cutoff" else 3.0)
        fcs.tune(pset)
        again = fcs.solver.mesh
        assert (again.M, again.alpha) == (first.M, first.alpha)
        assert again.influence.tobytes() == first.influence.tobytes()
        assert twin.solver.mesh is first

    @pytest.mark.parametrize("setter,value", [("set_cutoff", -1.0), ("set_alpha", 0.0), ("set_mesh_size", 2)])
    def test_invalid(self, setter, value):
        fcs = fcs_init("p2nfft", Machine(2))
        with pytest.raises(ValueError):
            getattr(fcs.solver, setter)(value)


def imbalance(machine):
    """Load imbalance of the virtual clocks, ``max/mean - 1`` (0 on idle ranks)."""
    mean = float(machine.clocks.mean())
    return 0.0 if mean == 0.0 else float(machine.clocks.max()) / mean - 1.0


class TestImbalance:
    def test_balanced(self):
        m = Machine(4)
        m.compute(np.ones(4), "x")
        assert imbalance(m) == pytest.approx(0.0)

    def test_single_hot_rank(self):
        m = Machine(4)
        m.compute(np.array([4.0, 0.0, 0.0, 0.0]), "x")
        assert imbalance(m) == pytest.approx(3.0)

    def test_zero_clocks(self):
        assert imbalance(Machine(4)) == 0.0

    def test_single_distribution_drives_imbalance(self, small_system):
        """Fig. 6's single-process distribution leaves one rank hot."""
        m_single = Machine(4)
        pset, _, _ = distribute(small_system, 4, "single")
        fcs = fcs_init("p2nfft", m_single, cutoff=3.0, compute="skip")
        fcs.set_common(box=small_system.box, periodic=True)
        fcs.tune(pset)
        fcs.run(pset)
        m_grid = Machine(4)
        pset2, _, _ = distribute(small_system, 4, "grid")
        fcs2 = fcs_init("p2nfft", m_grid, cutoff=3.0, compute="skip")
        fcs2.set_common(box=small_system.box, periodic=True)
        fcs2.tune(pset2)
        fcs2.run(pset2)
        assert imbalance(m_single) >= imbalance(m_grid)
