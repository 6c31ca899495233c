"""P2NFFT solver: linked cells, ghosts, accuracy, redistribution paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from repro.core.fine_grained import pair_key_bits
from repro.core.handle import fcs_init
from repro.core.particles import ParticleSet
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.ewald_ref import ewald_sum
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.solvers.p2nfft.solver import ghost_distribution
from repro.solvers.p2nfft.tuning import suggest_cutoff, tune_ewald_splitting
from conftest import random_particle_set


class TestLinkedCell:
    def brute(self, tpos, spos, sq, alpha, rc, box):
        pot = np.zeros(tpos.shape[0])
        field = np.zeros_like(tpos)
        for i in range(tpos.shape[0]):
            d = tpos[i] - spos
            d -= np.round(d / box) * box
            r2 = (d * d).sum(1)
            mask = (r2 > 0) & (r2 <= rc * rc)
            r = np.sqrt(r2[mask])
            pot[i] = (sq[mask] * erfc(alpha * r) / r).sum()
            gauss = 2 * alpha / np.sqrt(np.pi) * np.exp(-(alpha ** 2) * r2[mask])
            scale = sq[mask] * (erfc(alpha * r) / r + gauss) / r2[mask]
            field[i] = (scale[:, None] * d[mask]).sum(0)
        return pot, field

    @pytest.mark.parametrize("rc", [1.5, 3.0, 5.0])
    def test_matches_brute_force(self, rng, rc):
        L = 10.0
        box = np.full(3, L)
        n = 120
        pos = rng.uniform(0, L, (n, 3))
        q = rng.uniform(-1, 1, n)
        lc = LinkedCellNearField(box, np.zeros(3), rc, alpha=0.9)
        pot, field, pairs = lc.compute(pos, pos, q)
        bp, bf = self.brute(pos, pos, q, 0.9, rc, box)
        np.testing.assert_allclose(pot, bp, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(field, bf, rtol=1e-10, atol=1e-12)
        assert pairs > 0

    def test_targets_subset_of_sources(self, rng):
        L = 8.0
        box = np.full(3, L)
        spos = rng.uniform(0, L, (100, 3))
        sq = rng.uniform(-1, 1, 100)
        tpos = spos[:20]
        lc = LinkedCellNearField(box, np.zeros(3), 2.0, alpha=1.0)
        pot_t, _, _ = lc.compute(tpos, spos, sq)
        pot_all, _, _ = lc.compute(spos, spos, sq)
        np.testing.assert_allclose(pot_t, pot_all[:20], rtol=1e-12)

    def test_small_grid_dedup(self, rng):
        """rc near L/2 forces < 3 cells per dim: wrapped neighbor cells
        coincide and pairs must still be counted exactly once."""
        L = 6.0
        box = np.full(3, L)
        n = 40
        pos = rng.uniform(0, L, (n, 3))
        q = rng.uniform(-1, 1, n)
        lc = LinkedCellNearField(box, np.zeros(3), 2.9, alpha=0.8)
        assert lc.needs_dedup
        pot, _, _ = lc.compute(pos, pos, q)
        bp, _ = self.brute(pos, pos, q, 0.8, 2.9, box)
        np.testing.assert_allclose(pot, bp, rtol=1e-10)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            LinkedCellNearField(np.full(3, 10.0), np.zeros(3), 6.0, 1.0)

    def test_empty(self):
        lc = LinkedCellNearField(np.full(3, 10.0), np.zeros(3), 2.0, 1.0)
        pot, field, pairs = lc.compute(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert pot.shape == (0,) and pairs == 0


def ghost_pairs(grid, pos, rc):
    """``(elements, targets, owner)``: the (row, target) pairs of the
    placement route of ``pos``, every row held by rank 0, and the owners —
    the targets of the pairs the route marks as owner copies, one per row."""
    n = pos.shape[0]
    offsets = np.array([0] + [n] * grid.nprocs, dtype=np.int64)
    route, owned = ghost_distribution(grid, pos, rc, offsets)
    elems, targets = route.row_index, np.repeat(route.msg_dst, np.diff(route.row_ptr))
    np.testing.assert_array_equal(np.sort(elems[owned]), np.arange(n))
    owner = np.empty(n, dtype=np.int64)
    owner[elems[owned]] = targets[owned]
    return elems, targets, owner


class TestGhostDistribution:
    def test_owner_always_included(self, rng):
        grid = CartGrid(8, np.full(3, 10.0))
        pos = rng.uniform(0, 10, (50, 3))
        elems, targets, owners = ghost_pairs(grid, pos, rc=1.0)
        np.testing.assert_array_equal(owners, grid.rank_of_positions(pos))
        for i in range(50):
            assert owners[i] in targets[elems == i]

    def test_interior_particles_not_duplicated(self):
        grid = CartGrid(8, np.full(3, 10.0))
        # center of rank-0 subdomain (0..5)^3, far from all boundaries
        pos = np.array([[2.5, 2.5, 2.5]])
        elems, targets, _owner = ghost_pairs(grid, pos, rc=1.0)
        assert elems.shape[0] == 1

    def test_boundary_particles_duplicated(self):
        grid = CartGrid(8, np.full(3, 10.0))
        # near the +x face of rank 0's subdomain
        pos = np.array([[4.9, 2.5, 2.5]])
        elems, targets, _owner = ghost_pairs(grid, pos, rc=1.0)
        assert elems.shape[0] == 2  # owner + one face neighbor

    def test_corner_particle_eight_targets(self):
        grid = CartGrid(8, np.full(3, 10.0))
        pos = np.array([[4.95, 4.95, 4.95]])
        elems, targets, _owner = ghost_pairs(grid, pos, rc=1.0)
        assert elems.shape[0] == 8  # owner + 7 (corner of a 2x2x2 grid)

    def test_ghost_completeness(self, rng):
        """Every pair within rc is computable on the owner's rank: for each
        particle, all particles within rc are sent to its owner."""
        grid = CartGrid(8, np.full(3, 10.0))
        n = 80
        rc = 1.2
        pos = rng.uniform(0, 10, (n, 3))
        elems, targets, owners = ghost_pairs(grid, pos, rc)
        # local content per rank
        local = {r: set(elems[targets == r].tolist()) for r in range(8)}
        box = 10.0
        for i in range(n):
            d = pos - pos[i]
            d -= np.round(d / box) * box
            within = np.flatnonzero((d * d).sum(1) <= rc * rc)
            for j in within:
                assert j in local[owners[i]], (i, j)

    def test_ghost_copy_a_hair_below_the_upper_face(self):
        """P = 12 on a unit box is a (3, 2, 2) grid, and ``nextafter(1, 0)``
        over the cell edge 1/3 rounds up to 3: the particle's cell wraps to
        0, and measured from the cell it fell in it lies an ulp below the
        face to x-cell 2.  That cell's rank 11 owns its neighbour at x =
        0.99 and must receive a copy of it; measured from cell 0 (about a box
        length away) it received none.  A normal step lands there:
        ``np.mod(-1e-16, 1.0)`` is exactly ``nextafter(1, 0)``."""
        grid = CartGrid(12, np.ones(3))
        assert grid.dims == (3, 2, 2)
        hair = np.nextafter(1.0, 0.0)
        assert np.mod(-1e-16, 1.0) == hair
        pos = np.array([[0.99, 0.75, 0.75], [hair, 0.75, 0.75]])
        elems, targets, owners = ghost_pairs(grid, pos, rc=0.1)
        assert owners.tolist() == [11, 3]
        assert set(zip(elems.tolist(), targets.tolist())) == {(0, 11), (0, 3), (1, 3), (1, 11)}

    def test_key_width_fits_at_63_bits_and_is_refused_at_64(self):
        """The route's (source, target, row) key takes 2·bits(P − 1) +
        bits(n − 1) bits: 48 at the paper's 16 384 ranks and 829 440
        particles.  At 2^20 ranks, 2^23 rows fill 63 bits and one row more
        does not; 2^30 ranks leave room for 8 rows, not 9."""
        assert pair_key_bits(16384, 829440) == (14, 20)
        assert pair_key_bits(2**20, 2**23) == (20, 23)
        with pytest.raises(ValueError, match="8388609 rows on 1048576 ranks"):
            pair_key_bits(2**20, 2**23 + 1)
        # refused before any work, whether the ghosts would be listed or
        # counted: no table of 2^30 entries is ever built
        grid = CartGrid(2**30, np.full(3, 10.0))
        offsets = np.broadcast_to(np.int64(0), (2**30 + 1,))  # no memory behind it
        for counted in (False, True):
            with pytest.raises(ValueError, match="9 rows on 1073741824 ranks needs a 64-bit"):
                ghost_distribution(grid, np.zeros((9, 3)), 0.1, offsets, counted=counted)

    @pytest.mark.parametrize("solver", ["p2nfft", "ewald"])
    def test_placement_too_wide_to_key_is_refused_before_any_charge(self, solver):
        """A placement whose key would not fit raises from ``fcs_run`` with
        clocks, trace and the application's rows untouched, whether it
        would count its ghosts (skip) or list them (full).  (The grid is
        swapped for one of 2^30 ranks: a machine that size does not fit.)"""
        box = np.full(3, 4.0)
        machine = Machine(2)
        fcs = fcs_init(solver, machine, cutoff=1.0, compute="skip")
        fcs.set_common(box=box, offset=np.zeros(3), periodic=True)
        pos = np.random.default_rng(0).random((9, 3)) * box
        particles = ParticleSet([pos, np.zeros((0, 3))], [np.ones(9), np.zeros(0)])
        fcs.tune(particles)
        fcs.solver.grid = CartGrid(2**30, box)
        clocks, items = machine.clocks.copy(), machine.trace.items()
        # a full-compute placement without the near-field cells a full tune builds
        for compute in ("skip", "full"):
            fcs.solver._set_compute_mode(compute)
            with pytest.raises(ValueError, match="9 rows on 1073741824 ranks"):
                fcs.run(particles)
            assert np.array_equal(machine.clocks, clocks) and machine.trace.items() == items
            np.testing.assert_array_equal(particles.pos[0], pos)

    @pytest.mark.parametrize("solver", ["p2nfft", "ewald"])
    def test_near_field_keeps_the_pair_across_the_upper_face(self, solver):
        """The same two particles end to end: on 12 ranks the potentials are
        the one-rank potentials (where no cell wraps); without the copy the
        close pair's ``erfc(alpha r)/r`` of about 83 was missing."""
        hair = np.nextafter(1.0, 0.0)
        pos = np.array([[0.99, 0.75, 0.75], [hair, 0.75, 0.75], [0.3, 0.2, 0.4], [0.6, 0.3, 0.1]])
        q = np.array([1.0, -1.0, 1.0, -1.0])
        pots = []
        for P in (1, 12):
            fcs = fcs_init(solver, Machine(P), cutoff=0.2)
            fcs.set_common(box=np.ones(3), offset=np.zeros(3), periodic=True)
            particles = ParticleSet(
                [pos] + [np.zeros((0, 3))] * (P - 1), [q] + [np.zeros(0)] * (P - 1)
            )
            fcs.tune(particles, accuracy=1e-4)
            fcs.run(particles)
            pots.append(particles.pot[0].copy())
        np.testing.assert_allclose(pots[1], pots[0], rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(3, 2, 2), (3, 1, 1), (5, 2, 1), (6, 1, 1), (6, 2, 2), (3, 3, 5)]),
        st.sampled_from([1.0, 0.7, 3.0, 10.0]),
        st.integers(2, 40),
        st.floats(0.05, 1.2),
        st.integers(0, 2**16),
    )
    def test_every_pair_within_rc_reaches_the_targets_owner(self, dims, edge, n, rc_in_cells, seed):
        """Grids whose cell edge is not a binary fraction of the box, and
        coordinates snapped onto the faces and a hair below them: for every
        pair closer than ``rc`` the source is on the target's owner rank."""
        rng = np.random.default_rng(seed)
        box = np.full(3, edge)
        grid = CartGrid(int(np.prod(dims)), box, dims=dims)
        rc = rc_in_cells * float(grid.cell.min())
        pos = rng.random((n, 3)) * box
        snaps = np.array([0.0, -0.0, -1e-16, np.nextafter(edge, 0.0), edge])
        rows, axes = np.nonzero(rng.random((n, 3)) < 0.3)
        pos[rows, axes] = rng.choice(snaps, rows.size)
        # the second half takes some coordinates of the first: close pairs
        # across the snapped faces are common
        pos[n // 2:] = np.where(rng.random((n - n // 2, 3)) < 0.5, pos[: n - n // 2], pos[n // 2:])
        elems, targets, owners = ghost_pairs(grid, pos, rc)
        delivered = set(zip(elems.tolist(), targets.tolist()))
        w = np.mod(pos, box)
        w = np.where(w < box, w, 0.0)
        for i in range(n):
            d = w - w[i]
            d -= np.round(d / box) * box
            # a margin for the rounding of the rule's face distances
            for j in np.flatnonzero((d * d).sum(1) < (rc * (1.0 - 1e-9)) ** 2):
                assert (int(j), int(owners[i])) in delivered, (i, j)


class TestTuning:
    def test_alpha_grows_with_accuracy(self):
        box = np.full(3, 20.0)
        a1, m1 = tune_ewald_splitting(box, 3.0, 1e-3)
        a2, m2 = tune_ewald_splitting(box, 3.0, 1e-5)
        assert a2 > a1
        assert m2 > m1

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            tune_ewald_splitting(np.full(3, 10.0), 8.0, 1e-3)

    def test_suggest_cutoff_sane(self):
        rc = suggest_cutoff(np.full(3, 33.0), 2000)
        assert 0 < rc <= 16.5


class TestSolver:
    def run_parallel(self, system, nprocs, method="A", **kwargs):
        m = Machine(nprocs)
        pset, owner = random_particle_set(system, nprocs, seed=6)
        fcs = fcs_init("p2nfft", m, cutoff=3.0, **kwargs)
        fcs.set_common(box=system.box, offset=system.offset, periodic=True)
        if method == "B":
            fcs.set_resort(True)
        fcs.tune(pset, 1e-4)
        report = fcs.run(pset)
        return m, pset, owner, report, fcs

    def test_accuracy_vs_ewald(self, small_system):
        m, pset, owner, report, _ = self.run_parallel(small_system, 6)
        pe, fe = ewald_sum(small_system.pos, small_system.q, small_system.box, accuracy=1e-12)
        got_pot = np.concatenate(pset.pot)
        exp_pot = np.concatenate([pe[owner == r] for r in range(6)])
        rel = np.sqrt(((got_pot - exp_pot) ** 2).mean() / (exp_pot ** 2).mean())
        assert rel < 2e-2
        got_f = np.concatenate(pset.field)
        exp_f = np.concatenate([fe[owner == r] for r in range(6)])
        relf = np.sqrt(((got_f - exp_f) ** 2).sum(1).mean() / (exp_f ** 2).sum(1).mean())
        assert relf < 1e-2

    def test_energy_accuracy(self, small_system):
        m, pset, owner, _, _ = self.run_parallel(small_system, 4)
        pe, _ = ewald_sum(small_system.pos, small_system.q, small_system.box, accuracy=1e-12)
        E = 0.5 * (np.concatenate(pset.q) * np.concatenate(pset.pot)).sum()
        Ee = 0.5 * (small_system.q * pe).sum()
        assert abs(E - Ee) / abs(Ee) < 5e-3

    def test_nprocs_invariance(self, small_system):
        pots = []
        for P in (1, 5):
            m, pset, owner, _, _ = self.run_parallel(small_system, P)
            order = np.argsort(np.concatenate([np.flatnonzero(owner == r) for r in range(P)]))
            pots.append(np.concatenate(pset.pot)[order])
        np.testing.assert_allclose(pots[0], pots[1], rtol=1e-10)

    def test_method_b_drops_ghosts(self, small_system):
        m, pset, owner, report, fcs = self.run_parallel(small_system, 4, "B")
        assert report.changed
        # total count unchanged: ghosts were removed before returning
        assert int(report.new_counts.sum()) == small_system.n
        # every particle ended on the rank owning its position
        grid = fcs.solver.grid
        for r in range(4):
            np.testing.assert_array_equal(grid.rank_of_positions(pset.pos[r]), r)

    def test_open_boundaries_rejected(self):
        m = Machine(2)
        fcs = fcs_init("p2nfft", m)
        with pytest.raises(ValueError, match="periodic"):
            fcs.set_common(box=(10.0, 10.0, 10.0), periodic=False)

    def test_neighborhood_strategy_with_max_move(self, small_system):
        m = Machine(8)
        pset, owner = random_particle_set(small_system, 8, seed=6)
        fcs = fcs_init("p2nfft", m, cutoff=2.0)
        fcs.set_common(box=small_system.box, periodic=True)
        fcs.set_resort(True)
        fcs.tune(pset)
        fcs.run(pset)  # first run: establishes grid order
        fcs.set_max_particle_move(0.01)
        rep = fcs.run(pset)
        assert rep.strategy == "grid+neighborhood"
        rep2 = fcs.run(pset)
        assert rep2.strategy == "grid+alltoall"
