"""The vectorized redistribution held to the per-rank loops it replaced.

``tests/redistribution_oracles.py`` keeps the old bodies of
``fine_grained_redistribute``, ``ghost_distribution`` and the FMM halo
exchange; every property here runs both on the same input and demands the
same delivered rows *in the same order* and the same charges: the clock
vector bit for bit, every ``Trace`` row and the auditor's whole state.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redistribution_oracles import (
    fine_grained_redistribute_loop,
    ghost_distribution_loop,
    halo_exchange_loop,
    observed,
)
from repro.core.fine_grained import fine_grained_redistribute
from repro.core.handle import fcs_init
from repro.core.particles import ColumnBlock, ParticleSet
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.p2nfft.solver import ghost_distribution
from repro.verify.audit import enable_auditing
from repro.verify.strategies import multiplicity_maps

COMMS = st.sampled_from(["alltoall", "neighborhood"])


def audited(nprocs):
    machine = Machine(nprocs)
    enable_auditing(machine)
    return machine


def assert_same_blocks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.names() == w.names()
        for name in w.names():
            assert g[name].dtype == w[name].dtype
            np.testing.assert_array_equal(g[name], w[name])


def row_blocks(counts, seed):
    """Blocks with an id, a vector and a byte column (three dtypes)."""
    rng = np.random.default_rng(seed)
    blocks, base = [], 0
    for c in counts:
        blocks.append(ColumnBlock(
            ident=np.arange(base, base + c, dtype=np.int64),
            vec=rng.random((c, 3)),
            flag=rng.integers(0, 255, c).astype(np.uint8),
        ))
        base += c
    return blocks


def split_pairs(targets_per_element, counts):
    """Per-rank ``(elements, targets)`` from per-element target lists."""
    pairs, base = [], 0
    for c in counts:
        elems = [i for i in range(c) for _ in targets_per_element[base + i]]
        targs = [t for i in range(c) for t in targets_per_element[base + i]]
        pairs.append((np.asarray(elems, dtype=np.int64), np.asarray(targs, dtype=np.int64)))
        base += c
    return pairs


def rank_counts(n, nprocs, seed):
    """Split ``n`` rows over ``nprocs`` ranks, empty ranks likely."""
    cuts = np.sort(np.random.default_rng(seed).integers(0, n + 1, nprocs - 1))
    return np.diff(np.concatenate(([0], cuts, [n]))).tolist()


class TestFineGrainedAgainstLoop:
    def check(self, nprocs, counts, pairs, comm, seed=0):
        """Oracle, per-rank form and global form agree on rows and charges."""
        want_machine = audited(nprocs)
        want = fine_grained_redistribute_loop(
            want_machine, row_blocks(counts, seed), lambda r, b: pairs[r], "x", comm=comm
        )
        per_rank = audited(nprocs)
        got = fine_grained_redistribute(
            per_rank, row_blocks(counts, seed), lambda r, b: pairs[r], "x", comm=comm
        )
        assert_same_blocks(got, want)
        assert observed(per_rank) == observed(want_machine)

        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        if all(isinstance(p, tuple) for p in pairs):
            distribution = (
                np.concatenate([e + offsets[r] for r, (e, _t) in enumerate(pairs)]),
                np.concatenate([t for _e, t in pairs]),
            )
        else:
            distribution = np.concatenate(pairs)
        whole = audited(nprocs)
        got = fine_grained_redistribute(
            whole, row_blocks(counts, seed), distribution, "x", comm=comm
        )
        assert_same_blocks(got, want)
        assert observed(whole) == observed(want_machine)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(multiplicity_maps(max_size=40, max_nprocs=7), st.integers(0, 2**16), COMMS)
    def test_duplicating_and_dropping(self, drawn, seed, comm):
        nprocs, targets = drawn
        counts = rank_counts(len(targets), nprocs, seed)
        self.check(nprocs, counts, split_pairs(targets, counts), comm, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 40), st.integers(0, 2**16), COMMS)
    def test_plain_targets(self, nprocs, n, seed, comm):
        counts = rank_counts(n, nprocs, seed)
        rng = np.random.default_rng(seed)
        self.check(nprocs, counts, [rng.integers(0, nprocs, c) for c in counts], comm, seed)

    @pytest.mark.parametrize("comm", ["alltoall", "neighborhood"])
    @pytest.mark.parametrize(
        "nprocs, counts",
        [
            (1, [5]),           # P = 1: only a self-send
            (4, [0, 0, 0, 0]),  # n = 0
            (5, [1, 0, 1, 0, 0]),  # n < P
            (3, [4, 0, 6]),
        ],
    )
    def test_everything_to_one_rank(self, nprocs, counts, comm):
        for target in {0, nprocs - 1}:
            self.check(
                nprocs, counts, [np.full(c, target, dtype=np.int64) for c in counts], comm
            )

    def test_unsorted_global_pairs_keep_their_listed_order(self):
        """Within one (source, target) message rows travel in the order the
        pairs were listed, whatever order the global pairs come in."""
        machine = Machine(2)
        blocks = row_blocks([3, 2], 0)
        elements = np.array([4, 2, 0, 3, 2, 1], dtype=np.int64)
        targets = np.array([0, 1, 1, 0, 1, 0], dtype=np.int64)
        out = fine_grained_redistribute(machine, blocks, (elements, targets), "x")
        np.testing.assert_array_equal(out[0]["ident"], [1, 4, 3])
        np.testing.assert_array_equal(out[1]["ident"], [2, 0, 2])


GRIDS = st.sampled_from(
    [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2), (3, 3, 3), (5, 1, 2)]
)


def on_faces(pos, grid, rng):
    """Move a third of the positions exactly onto a subdomain face."""
    pos = pos.copy()
    pick = rng.random(pos.shape[0]) < 1.0 / 3.0
    axis = rng.integers(0, 3, pos.shape[0])
    plane = rng.integers(0, np.asarray(grid.dims)[axis] + 1)
    rows = np.flatnonzero(pick)
    pos[rows, axis[rows]] = grid.offset[axis[rows]] + plane[rows] * grid.cell[axis[rows]]
    return pos


class TestGhostDistributionAgainstLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        GRIDS,
        st.integers(0, 60),
        st.floats(0.02, 1.6),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_same_pairs(self, dims, n, rc_in_cells, faces, seed):
        """Small dims wrap two offsets onto one rank (the dedup case),
        ``rc`` above one cell reaches the second ring."""
        rng = np.random.default_rng(seed)
        box = np.array([7.0, 5.0, 6.0])
        offset = np.array([-1.0, 0.5, 2.0])
        grid = CartGrid(int(np.prod(dims)), box, offset, dims=dims)
        rc = rc_in_cells * float(grid.cell.min())
        # a few positions outside the box: they wrap
        pos = offset + (rng.random((n, 3)) * 1.2 - 0.1) * box
        if faces:
            pos = on_faces(pos, grid, rng)
        got = ghost_distribution(grid, pos, rc)
        want = ghost_distribution_loop(grid, pos, rc)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 1), (4, 3, 2)])
    @pytest.mark.parametrize("rc_in_cells", [0.3, 1.0, 1.4])
    def test_against_minimum_image_distance(self, dims, rc_in_cells):
        """Brute force: a particle goes to a rank iff it lies in the rank's
        subdomain or strictly within ``rc`` of some periodic image of it."""
        rng = np.random.default_rng(7)
        box = np.array([6.0, 6.0, 6.0])
        grid = CartGrid(int(np.prod(dims)), box, dims=dims)
        rc = rc_in_cells * float(grid.cell.min())
        pos = on_faces(rng.random((120, 3)) * box, grid, rng)
        wrapped = np.mod(pos, box)
        owner = grid.rank_of_positions(wrapped)
        # the offsets the rule looks at bound how many images can matter
        reach = int(np.ceil(rc / grid.cell.min())) + 1
        shifts = [
            np.asarray(s) * box for s in itertools.product(range(-reach, reach + 1), repeat=3)
        ]
        expected = set()
        for rank in range(grid.nprocs):
            lo, hi = grid.subdomain_bounds(rank)
            d2 = np.full(pos.shape[0], np.inf)
            for shift in shifts:
                gap = np.maximum(np.maximum(lo + shift - wrapped, wrapped - (hi + shift)), 0.0)
                d2 = np.minimum(d2, (gap * gap).sum(axis=1))
            for i in np.flatnonzero((d2 < rc * rc) | (owner == rank)):
                expected.add((int(i), rank))
        elems, targets = ghost_distribution(grid, pos, rc)
        got = set(zip(elems.tolist(), targets.tolist()))
        # exactly on a face the brute force and the rule may round the face
        # distance differently: everything the rule sends is expected, and
        # whatever it leaves out sits at the cutoff to rounding
        assert got <= expected
        for i, rank in expected - got:
            lo, hi = grid.subdomain_bounds(rank)
            gaps = [
                np.maximum(np.maximum(lo + s - wrapped[i], wrapped[i] - (hi + s)), 0.0)
                for s in shifts
            ]
            assert min(float((g * g).sum()) for g in gaps) == pytest.approx(rc * rc, rel=1e-9)


def fmm_state(nprocs, n, seed, periodic, clustered):
    """A tuned FMM solver and its blocks, parallel-sorted by Morton key."""
    rng = np.random.default_rng(seed)
    box = np.array([4.0, 4.0, 4.0])
    # clustered: everything in a few leaf boxes around the box corner, so
    # boxes straddle consecutive ranks and (periodic) neighbors wrap
    pos = np.mod((rng.random((n, 3)) - 0.5) * box * (0.3 if clustered else 1.0), box)
    q = rng.standard_normal(n)
    owner = rng.integers(0, nprocs, n)
    depth = 3 if periodic else 2
    pset = ParticleSet(
        [pos[owner == r] for r in range(nprocs)],
        [q[owner == r] for r in range(nprocs)],
        capacity_factor=8.0,
    )

    def build():
        machine = audited(nprocs)
        fcs = fcs_init("fmm", machine, order=2, depth=depth, lattice_shells=1, compute="skip")
        fcs.set_common(box=box, periodic=periodic)
        fcs.tune(pset)
        blocks, _ = fcs.solver._sort(fcs.solver._make_blocks(pset), None)
        return machine, fcs.solver, blocks

    return build


class TestHaloAgainstLoop:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 9),
        st.integers(0, 120),
        st.integers(0, 2**16),
        st.booleans(),
        st.booleans(),
    )
    def test_same_halo(self, nprocs, n, seed, periodic, clustered):
        """Periodic and open trees; clustered particles make a box straddle
        consecutive ranks; with n < P some ranks are empty."""
        build = fmm_state(nprocs, n, seed, periodic, clustered)
        want_machine, want_solver, blocks = build()
        want = halo_exchange_loop(want_solver, blocks, want_solver._ownership(blocks))
        machine, solver, blocks = build()
        got = solver._halo_exchange(blocks, solver._ownership(blocks))
        assert_same_blocks(got, want)
        assert observed(machine) == observed(want_machine)
