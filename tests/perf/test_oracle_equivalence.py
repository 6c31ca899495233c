"""Bitwise equivalence of every vectorized hot kernel against its scalar
oracle.

The original implementation of each vectorized kernel lives under ``tests/``:
five scalar bodies in ``tests/kernel_oracles.py``, the resort plan's former
loops in ``tests/redistribution_oracles.py`` and the former near-field pair
kernels in ``tests/near_field_oracles.py``; no production path knows about
them.  The contract checked here is strict: *bitwise identical* outputs
(``np.array_equal`` on equal dtypes — never ``allclose``), identical dict key
orders, identical modeled clocks, traces and error messages.  Host speed is
the only thing the vectorization is allowed to change.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles
import near_field_oracles
from instruments import fmm_evaluate
from redistribution_oracles import ResortPlanLoop
from repro.bench.harness import make_system
from repro.core.particles import ColumnBlock
from repro.core.plan import ResortPlan
from repro.core.resort import pack_resort_index
from repro.md.simulation import Simulation, SimulationConfig
from repro.simmpi.machine import Machine
from repro.solvers.common import pairs
from repro.solvers.common.pairs import ragged_cross
from repro.solvers.fmm.expansions import derivative_tensors
from repro.solvers.fmm.tree import FMMTree
from repro.solvers.p2nfft.linked_cell import LinkedCellNearField
from repro.verify.invariants import state_fingerprint
from repro.sorting.partition_sort import partition_destinations, split_by_destination


def assert_same_arrays(vec, ref):
    """Bitwise array equality including dtype and shape."""
    assert type(vec) is type(ref) or (
        isinstance(vec, np.ndarray) and isinstance(ref, np.ndarray)
    )
    assert vec.dtype == ref.dtype
    assert vec.shape == ref.shape
    assert np.array_equal(vec, ref)


# ------------------------------------------------------------- ragged_cross

#: (t_start, t_len, s_start, s_len) per segment; zero lengths and empty
#: tables are the important edge cases
segment_tables = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(0, 7),
        st.integers(0, 40),
        st.integers(0, 7),
    ),
    min_size=0,
    max_size=40,
)


class TestRaggedCross:
    @given(segment_tables)
    def test_bitwise(self, segs):
        t_starts = np.array([s[0] for s in segs], dtype=np.int64)
        t_ends = t_starts + np.array([s[1] for s in segs], dtype=np.int64)
        s_starts = np.array([s[2] for s in segs], dtype=np.int64)
        s_ends = s_starts + np.array([s[3] for s in segs], dtype=np.int64)
        vec_ti, vec_si = ragged_cross(t_starts, t_ends, s_starts, s_ends)
        ref_ti, ref_si = kernel_oracles.ragged_cross(t_starts, t_ends, s_starts, s_ends)
        assert_same_arrays(vec_ti, ref_ti)
        assert_same_arrays(vec_si, ref_si)

    def test_all_empty_segments(self):
        z = np.zeros(5, dtype=np.int64)
        vec = ragged_cross(z, z, z, z)
        ref = kernel_oracles.ragged_cross(z, z, z, z)
        for a, b in zip(vec, ref):
            assert_same_arrays(a, b)
            assert a.size == 0


# --------------------------------------------------------- partition sort

@st.composite
def destination_problems(draw):
    n = draw(st.integers(0, 200))
    P = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).astype(np.int64)
    cuts = np.sort(rng.integers(0, n + 1, P - 1)) if P > 1 else np.empty(0, np.int64)
    bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
    return order, bounds, rng


class TestPartitionSort:
    @given(destination_problems())
    def test_destinations_bitwise(self, problem):
        order, bounds, _rng = problem
        vec = partition_destinations(order, bounds)
        ref = kernel_oracles.partition_destinations(order, bounds)
        assert_same_arrays(vec, ref)

    @given(destination_problems())
    def test_split_bitwise(self, problem):
        order, bounds, rng = problem
        n = order.shape[0]
        P = bounds.shape[0] - 1
        d = rng.integers(0, P, n).astype(np.int64)
        block = ColumnBlock(
            keys=rng.integers(0, 1 << 50, n).astype(np.uint64),
            pos=rng.standard_normal((n, 3)),
            ids=np.arange(n, dtype=np.int64),
        )
        vec = split_by_destination(block, d)
        ref = kernel_oracles.split_by_destination(block, d)
        # identical key *order*, not just identical key sets
        assert list(vec) == list(ref)
        for dst in vec:
            assert vec[dst].names() == ref[dst].names()
            for name in vec[dst].names():
                assert_same_arrays(vec[dst][name], ref[dst][name])

    def test_split_empty_block(self):
        block = ColumnBlock(keys=np.empty(0, dtype=np.uint64))
        d = np.empty(0, dtype=np.int64)
        assert split_by_destination(block, d) == {}
        assert kernel_oracles.split_by_destination(block, d) == {}


# ----------------------------------------------------- derivative tensors

class TestDerivativeTensors:
    @given(
        st.integers(2, 6),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise(self, order, m, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(scale=10.0, size=(m, 3))
        # keep displacements away from the origin (well-separated cells)
        d[np.linalg.norm(d, axis=1) < 2.0] += 6.0
        vec = derivative_tensors(d, order)
        ref = kernel_oracles.derivative_tensors(d, order)
        assert_same_arrays(vec, ref)

    def test_single_displacement(self):
        d = np.array([3.0, -2.0, 5.0])
        vec = derivative_tensors(d, 6)
        ref = kernel_oracles.derivative_tensors(d, 6)
        assert_same_arrays(vec, ref)


# ------------------------------------------------- near-field pair kernels

@st.composite
def pair_problems(draw):
    """``(tpos, spos, sq, ti, si, box, cutoff)`` with everything a pair list
    can hold: unsorted and repeated targets, targets with no pair, an empty
    list, no targets at all, self and coincident pairs, pairs at exactly the
    cutoff, displacements beyond half the box on every axis."""
    nt = draw(st.integers(0, 9))
    ns = draw(st.integers(0, 12))
    npairs = draw(st.integers(0, 70)) if nt and ns else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = np.array([10.0, 7.5, 5.0])
    tpos = rng.uniform(0.0, 1.0, (nt, 3)) * edges
    spos = rng.uniform(0.0, 1.0, (ns, 3)) * edges
    if draw(st.booleans()):
        # quarter-lattice positions: coincident particles and displacements
        # of exactly the cutoff are common, and their squares are exact
        tpos = np.round(tpos * 4.0) / 4.0
        spos = np.round(spos * 4.0) / 4.0
    shared = min(nt, ns, draw(st.integers(0, 3)))
    spos[:shared] = tpos[:shared]  # targets that are also sources
    ti = rng.integers(0, max(nt, 1), npairs)
    si = rng.integers(0, max(ns, 1), npairs)
    sq = rng.uniform(-1.0, 1.0, ns)
    box = draw(st.sampled_from([None, edges]))
    cutoff = draw(st.sampled_from([0.75, 1.5, 2.5]))
    return tpos, spos, sq, ti, si, box, cutoff


def assert_same_sums(got, want):
    """``(pot, field, count)`` bit for bit, layout included."""
    for g, w in zip(got[:2], want[:2]):
        assert_same_arrays(g, w)
        assert g.flags.c_contiguous
    assert type(got[2]) is int and got[2] == want[2]


def lattice_run_problem(npairs):
    """Sorted targets in runs of five pairs on a quarter lattice."""
    rng = np.random.default_rng(npairs)
    tpos = rng.integers(0, 40, (npairs // 5 + 1, 3)) / 4.0
    spos = rng.integers(0, 40, (11, 3)) / 4.0
    ti = np.arange(npairs) // 5
    si = rng.integers(0, 11, npairs)
    return tpos, spos, rng.uniform(-1.0, 1.0, 11), ti, si


class TestPairKernels:
    """``coulomb_pairs`` / ``erfc_pairs`` against the bodies they had before
    the column-wise blocked core (``tests/near_field_oracles.py``)."""

    @given(pair_problems(), st.sampled_from([1, 3, 16, pairs._BLOCK]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_coulomb_bitwise(self, problem, block, use_cutoff):
        *args, box, cutoff = problem
        cutoff = cutoff if use_cutoff else None
        with mock.patch.object(pairs, "_BLOCK", block):
            got = pairs.coulomb_pairs(*args, box=box, cutoff=cutoff)
        assert_same_sums(got, near_field_oracles.coulomb_pairs(*args, box=box, cutoff=cutoff))

    @given(pair_problems(), st.sampled_from([1, 3, 16, pairs._BLOCK]), st.floats(0.2, 1.5))
    @settings(max_examples=150, deadline=None)
    def test_erfc_bitwise(self, problem, block, alpha):
        *args, box, cutoff = problem
        with mock.patch.object(pairs, "_BLOCK", block):
            got = pairs.erfc_pairs(*args, alpha, cutoff, box=box)
        assert_same_sums(got, near_field_oracles.erfc_pairs(*args, alpha, cutoff, box=box))

    @pytest.mark.parametrize("npairs", [7, 8, 9, 8 * 4 + 3])
    @pytest.mark.parametrize("box", [None, np.array([10.0, 7.5, 5.0])])
    def test_block_boundaries(self, npairs, box):
        """One pair short of a block, exactly one, one over, and several
        with every boundary inside one target's run of five pairs."""
        args = lattice_run_problem(npairs)
        with mock.patch.object(pairs, "_BLOCK", 8):
            coulomb = pairs.coulomb_pairs(*args, box=box)
            ewald = pairs.erfc_pairs(*args, 0.7, 2.5, box=box)
        assert_same_sums(coulomb, near_field_oracles.coulomb_pairs(*args, box=box))
        assert_same_sums(ewald, near_field_oracles.erfc_pairs(*args, 0.7, 2.5, box=box))

    def test_cutoff_edge_and_zero_distance(self):
        """A coincident pair is skipped, a pair at exactly ``r2 == rc**2``
        is evaluated, one a hair beyond it is not."""
        tpos = np.array([[1.0, 2.0, 3.0]])
        spos = np.array([[1.0, 2.0, 3.0], [2.5, 2.0, 3.0], [2.5 + 2.0**-40, 2.0, 3.0]])
        ti, si = np.zeros(3, dtype=np.int64), np.arange(3)
        got = pairs.erfc_pairs(tpos, spos, np.ones(3), ti, si, 0.7, 1.5)
        assert got[2] == 1
        assert_same_sums(got, near_field_oracles.erfc_pairs(tpos, spos, np.ones(3), ti, si, 0.7, 1.5))

    def test_no_targets(self):
        empty = np.empty(0, dtype=np.int64)
        args = (np.empty((0, 3)), np.ones((4, 3)), np.ones(4), empty, empty)
        got = pairs.coulomb_pairs(*args)
        assert got[0].shape == (0,) and got[1].shape == (0, 3) and got[2] == 0
        assert_same_sums(got, near_field_oracles.coulomb_pairs(*args))


class TestPairKernelArithmetic:
    """The three facts the kernel's bits rest on."""

    def test_row_sum_is_left_associated(self):
        d = np.random.default_rng(0).normal(size=(100_000, 3))
        dx, dy, dz = d.T
        row_sum = (d * d).sum(axis=1)
        assert np.array_equal(row_sum, (dx * dx + dy * dy) + dz * dz)
        # ... and the other association is a different number somewhere
        assert not np.array_equal(row_sum, dx * dx + (dy * dy + dz * dz))

    def test_bincount_adds_like_add_at(self):
        rng = np.random.default_rng(1)
        ti = rng.integers(0, 37, 5000)  # unsorted, every target hit many times
        w = rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, 5000)
        scattered = np.zeros(40)
        np.add.at(scattered, ti, w)
        assert_same_arrays(np.bincount(ti, weights=w, minlength=40), scattered)

    def test_minimum_image_is_per_axis(self):
        rng = np.random.default_rng(2)
        box = np.array([10.0, 7.5, 5.0])
        d = rng.uniform(-1.0, 1.0, (5000, 3)) * box  # up to a whole box away
        rows = d - np.round(d / box) * box
        for axis in range(3):
            col = np.ascontiguousarray(d[:, axis])
            assert np.array_equal(col - np.round(col / box[axis]) * box[axis], rows[:, axis])


def _lattice_edges(edge):
    """Coordinates on and a hair beside both faces and the middle of the
    box, ``-0.0`` included."""
    return np.array([
        0.0, -0.0, np.nextafter(0.0, -1.0), np.nextafter(edge, 0.0),
        0.5 * edge, np.nextafter(0.5 * edge, 0.0),
    ])


@st.composite
def near_field_layouts(draw):
    """``(pos, q, n_targets, rng)`` in the box ``[0, 8)**3`` of a depth-3
    tree (leaves of edge 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 90))
    layout = draw(st.sampled_from(["uniform", "one leaf", "faces", "corner"]))
    if layout == "uniform":
        pos = rng.uniform(0.0, 8.0, (n, 3))
    elif layout == "one leaf":
        pos = 3.0 + rng.uniform(0.0, 1.0, (n, 3))
    elif layout == "corner":
        pos = rng.uniform(0.0, 2.5, (n, 3))
    else:
        # on leaf faces (quarter lattice), the box edges and its middle
        pos = np.minimum(rng.integers(0, 32, (n, 3)) / 4.0, np.nextafter(8.0, 0.0))
        special = rng.random((n, 3)) < 0.3
        pos[special] = rng.choice(_lattice_edges(8.0), int(special.sum()))
    shared = draw(st.integers(0, min(3, n - 1)))
    pos[n - shared:] = pos[:shared]  # coincident with a particle elsewhere
    n_targets = draw(st.integers(1, n))
    return pos, rng.uniform(-1.0, 1.0, n), n_targets, rng


@st.composite
def linked_cell_layouts(draw):
    """``(near, tpos, spos, sq)`` of a linked cell whose cutoff and edges sit
    on the quarter lattice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rc = draw(st.sampled_from([1.0, 1.5, 2.0]))
    edges = np.array([draw(st.integers(8, 36)) for _ in range(3)]) / 4.0
    edges = np.maximum(edges, 2.0 * rc)
    near = LinkedCellNearField(edges, np.zeros(3), rc, alpha=0.7)
    ns = draw(st.integers(0, 60))
    layout = draw(st.sampled_from(["uniform", "one cell", "lattice"]))
    if layout == "uniform":
        spos = rng.uniform(0.0, 1.0, (ns, 3)) * edges
    elif layout == "one cell":
        spos = rng.uniform(0.0, 1.0, (ns, 3)) * near.cell
    else:
        # quarter lattice: cell faces, exact rc apart, at L/2, a hair below L
        spos = np.minimum(rng.integers(0, 40, (ns, 3)) / 4.0, np.nextafter(edges, 0.0))
        special = rng.random((ns, 3)) < 0.3
        for axis in range(3):
            rows = np.flatnonzero(special[:, axis])
            spos[rows, axis] = rng.choice(_lattice_edges(edges[axis]), rows.size)
    nt = draw(st.integers(1, 25))
    if ns and draw(st.booleans()):
        tpos = spos[np.sort(rng.choice(ns, min(nt, ns), replace=False))]
    else:
        tpos = rng.uniform(0.0, 1.0, (nt, 3)) * edges
    return near, tpos, spos, rng.uniform(-1.0, 1.0, ns)


class TestNearFieldMorton:
    """The run-table sweep against the per-offset loop ``near_field_morton``
    used to be."""

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_targets", [1, 300])
    def test_bitwise(self, periodic, n_targets):
        rng = np.random.default_rng(n_targets + periodic)
        box = np.array([8.0, 8.0, 8.0])
        tree = FMMTree(3, 2, box, np.zeros(3), periodic, build_operators=False)
        # sources cover a corner of the grid only: some offsets find nothing
        spos = rng.uniform(0.0, 5.0, (700, 3))
        s_keys = tree.morton_keys(spos)
        s_order = np.argsort(s_keys, kind="stable")
        spos, s_keys = spos[s_order], s_keys[s_order]
        # targets are the first sources (self pairs) in their sorted order
        t_sel = np.sort(rng.choice(700, n_targets, replace=False))
        args = (spos[t_sel], s_keys[t_sel], spos, rng.uniform(-1.0, 1.0, 700), s_keys)
        assert_same_sums(
            tree.near_field_morton(*args),
            near_field_oracles.near_field_morton_loop(tree, *args),
        )

    @given(near_field_layouts(), st.booleans(), st.sampled_from([1, 7, pairs._BLOCK]))
    @settings(max_examples=80, deadline=None)
    def test_sweep_bitwise(self, problem, periodic, block):
        """Around the sweep's exceptions: one leaf holding everything (one
        run as long as n), empty neighbour boxes, open boundaries, targets
        that coincide with a source in the middle of a run, coordinates on
        leaf faces, at ``-0.0`` and a hair beside the box faces, a single
        target — and runs split over blocks of the table."""
        pos, q, n_targets, rng = problem
        tree = FMMTree(3, 2, np.full(3, 8.0), np.zeros(3), periodic, build_operators=False)
        keys = tree.morton_keys(pos)
        order = np.argsort(keys, kind="stable")
        pos, q, keys = pos[order], q[order], keys[order]
        t_sel = np.sort(rng.choice(pos.shape[0], n_targets, replace=False))
        args = (pos[t_sel], keys[t_sel], pos, q, keys)
        with mock.patch.object(pairs, "_BLOCK", block):
            got = tree.near_field_morton(*args)
        assert_same_sums(got, near_field_oracles.near_field_morton_loop(tree, *args))

    def test_no_targets(self):
        """Zero targets (and an empty evaluation) make empty sums."""
        tree = FMMTree(3, 2, np.full(3, 8.0), np.zeros(3), True)
        pos = np.random.default_rng(0).uniform(0.0, 8.0, (50, 3))
        keys = np.sort(tree.morton_keys(pos))
        empty_keys = keys[:0]
        pot, field, count = tree.near_field_morton(pos[:0], empty_keys, pos, np.ones(50), keys)
        assert pot.shape == (0,) and field.shape == (0, 3) and count == 0
        pot, field, stats = fmm_evaluate(tree, pos[:0], np.ones(0))
        assert pot.shape == (0,) and field.shape == (0, 3) and stats.near_pairs == 0


class TestLinkedCell:
    """The linked cell's cutoff bound against ``near_field_oracles.erfc_pairs``
    over the ``kernel_oracles`` candidate pairs."""

    def test_dedup_geometry_is_exercised(self):
        """dims < 3 (wrapped neighbors coincide) must flow through _dedup."""
        nf = LinkedCellNearField(np.array([2.0, 2.0, 2.0]), np.zeros(3), 1.0, 0.7)
        assert nf.needs_dedup
        big = LinkedCellNearField(np.array([9.0, 9.0, 9.0]), np.zeros(3), 1.0, 0.7)
        assert not big.needs_dedup

    @given(linked_cell_layouts())
    @settings(max_examples=100, deadline=None)
    def test_compute_bitwise(self, problem):
        """Around the bound's exceptions: everything in one cell, pairs at
        exactly ``r2 == rc**2``, coordinates on cell faces, at ``L/2``, at
        ``-0.0`` and a hair beside the box faces (corners straddling
        ``+-L/2``), dims < 3 (deduplicated), a single target, targets that
        are also sources."""
        near, tpos, spos, sq = problem
        assert_same_sums(
            near.compute(tpos, spos, sq),
            near_field_oracles.linked_cell_compute(
                near, tpos, spos, sq, kernel_oracles.candidate_pairs, near_field_oracles.erfc_pairs
            ),
        )

    @given(linked_cell_layouts())
    @settings(max_examples=100, deadline=None)
    def test_bound_never_exceeds_a_members_r2(self, problem):
        """The bound of every (target, source cell) run is at most the
        ``r2`` the kernel computes for each of the cell's members."""
        near, tpos, spos, _sq = problem
        if not spos.shape[0]:
            return
        cells = near.cell_ids(spos)
        order = np.argsort(cells, kind="stable")
        scols = np.ascontiguousarray(spos[order].T)
        s_cells, first = np.unique(cells[order], return_index=True)
        lo = np.minimum.reduceat(scols, first, axis=1)
        hi = np.maximum.reduceat(scols, first, axis=1)
        member_cell = np.searchsorted(s_cells, cells[order])
        tcols = np.ascontiguousarray(tpos.T)
        ti = np.repeat(np.arange(tpos.shape[0]), spos.shape[0])
        si = np.tile(np.arange(spos.shape[0]), tpos.shape[0])
        r2, _ = pairs.pair_displacements(tcols, scols, ti, si, near.box)
        bound = pairs.pair_distance_bounds(tcols, lo, hi, ti, member_cell[si], near.box)
        assert np.all(bound <= r2)


def _trajectory(solver, periodic):
    """init + 2 force steps; everything the run leaves behind."""
    system = make_system(512, 3)
    config = SimulationConfig(
        solver=solver, method="B", distribution="grid", seed=3, dynamics="force"
    )
    sim = Simulation(Machine(4), system, config)
    sim.fcs.set_common(box=system.box, offset=system.offset, periodic=periodic)
    sim.run(2)
    return (
        state_fingerprint(sim),
        [c.hex() for c in sim.machine.clocks.tolist()],
        sim.machine.trace.items(),
    )


@pytest.mark.parametrize(
    "solver, periodic",
    [("fmm", True), ("fmm", False), ("p2nfft", True), ("ewald", True)],
)
def test_trajectory_with_oracle_kernels(solver, periodic, rebind, counted):
    """Whole runs cannot tell the production kernels from the oracles (each
    run of a run table summed by the oracle as a target of its own)."""
    production = _trajectory(solver, periodic)
    rebind(pairs.coulomb_pairs, counted(near_field_oracles.over_runs(near_field_oracles.coulomb_pairs)))
    rebind(pairs.erfc_pairs, counted(near_field_oracles.over_runs(near_field_oracles.erfc_pairs)))
    assert _trajectory(solver, periodic) == production
    assert counted.called == {"coulomb_pairs" if solver == "fmm" else "erfc_pairs"}


# ------------------------------------------------------------ resort plan

def _resort_problem(n, P, seed, *, local=False):
    """Random (or banded-local) resort indices + mixed columns."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, np.ones(P) / P).astype(np.int64)
    off = np.concatenate(([0], np.cumsum(counts)))
    perm = np.arange(n)
    if local:
        w = max(2 * (n // P), 1)
        for s in range(0, n, w):
            seg = perm[s : s + 2 * w].copy()
            rng.shuffle(seg)
            perm[s : s + 2 * w] = seg
    else:
        rng.shuffle(perm)
    tgt_rank = np.searchsorted(off[1:], perm, side="right")
    tgt_pos = perm - off[tgt_rank]
    idx = [
        pack_resort_index(tgt_rank[off[r] : off[r + 1]], tgt_pos[off[r] : off[r + 1]])
        for r in range(P)
    ]
    counts_l = [int(c) for c in counts]
    cols = [
        [rng.standard_normal((counts_l[r], 3)) for r in range(P)],
        [rng.standard_normal(counts_l[r]) for r in range(P)],
        [rng.integers(0, 1 << 40, counts_l[r]) for r in range(P)],
    ]
    return idx, counts_l, cols


def _run_plan(plan_type, idx, counts, cols, comm):
    machine = Machine(len(counts))
    plan = plan_type(machine, idx, counts, counts, comm=comm)
    out = plan.execute(cols)
    return machine, plan, out


def assert_plan_runs_identical(idx, counts, cols, comm):
    m_vec, p_vec, out_vec = _run_plan(ResortPlan, idx, counts, cols, comm)
    m_ref, p_ref, out_ref = _run_plan(ResortPlanLoop, idx, counts, cols, comm)
    # redistributed data: bitwise per column per rank
    assert len(out_vec) == len(out_ref)
    for cv, cr in zip(out_vec, out_ref):
        for av, ar in zip(cv, cr):
            assert_same_arrays(av, ar)
    # modeled clocks and trace: the virtual machine must not notice which
    # implementation ran
    assert np.array_equal(m_vec.clocks, m_ref.clocks)
    assert m_vec.trace.snapshot() == m_ref.trace.snapshot()
    assert m_vec.trace.counters() == m_ref.trace.counters()
    # plan-level statistics
    for field in ("compiles", "cache_hits", "executions", "fused_columns", "bytes_moved"):
        assert getattr(p_vec.stats, field) == getattr(p_ref.stats, field)


class TestResortPlan:
    """The plan against the per-rank loops it replaced
    (``tests/redistribution_oracles.py``; the mixed-layout property lives in
    ``tests/core/test_redistribution_oracles.py``)."""

    @given(
        st.integers(0, 160),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["alltoall", "neighborhood"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_equivalence(self, n, P, seed, comm):
        idx, counts, cols = _resort_problem(n, P, seed)
        assert_plan_runs_identical(idx, counts, cols, comm)

    def test_banded_neighborhood(self):
        """The method-B brownian-local shape the benchmarks use."""
        idx, counts, cols = _resort_problem(512, 8, 17, local=True)
        assert_plan_runs_identical(idx, counts, cols, "neighborhood")

    @pytest.mark.parametrize("reference", [False, True])
    def test_error_messages_identical(self, reference):
        """Validation failures must raise the same message on both paths."""
        idx, counts, cols = _resort_problem(64, 4, 5)
        machine = Machine(4)
        plan = (ResortPlanLoop if reference else ResortPlan)(machine, idx, counts, counts)
        bad = [list(col) for col in cols]
        bad[1] = list(bad[1])
        bad[1][3] = bad[1][3][:-1]  # drop one row of column 1 on rank 3
        with pytest.raises(ValueError) as exc:
            plan.execute(bad)
        assert "column 1, rank 3" in str(exc.value)

    @pytest.mark.parametrize("algos", [None, "bruck"])
    @pytest.mark.parametrize("comm", ["alltoall", "neighborhood"])
    @pytest.mark.parametrize("n, P, seed", [(97, 5, 2), (40, 6, 9)])
    def test_typed_columns(self, n, P, seed, comm, algos):
        """Columns of every layout a caller may hand in travel as they are:
        ``bool``, ``uint8 (n, 2)``, ``int32``, big-endian ``>f8`` and a
        strided view keep dtype, shape and bytes, and no two arrive in
        shared memory."""
        idx, counts, _ = _resort_problem(n, P, seed)
        rng = np.random.default_rng(seed)
        wide = [rng.standard_normal((c, 6)) for c in counts]
        cols = [
            [rng.random(c) > 0.5 for c in counts],
            [rng.integers(0, 256, (c, 2), dtype=np.uint8) for c in counts],
            [rng.integers(-(2**31), 2**31, c, dtype=np.int32) for c in counts],
            [rng.standard_normal(c).astype(">f8") for c in counts],
            [w[:, 1::2] for w in wide],
        ]
        assert not cols[4][0].flags.c_contiguous
        runs = []
        for plan_type in (ResortPlan, ResortPlanLoop):
            machine = Machine(P)
            machine.set_collective_algos(algos)
            out = plan_type(machine, idx, counts, counts, comm=comm).execute(cols)
            runs.append((machine, out))
        (m_vec, out_vec), (m_ref, out_ref) = runs
        for c, (cv, cr) in enumerate(zip(out_vec, out_ref)):
            for av, ar, src in zip(cv, cr, cols[c]):
                assert av.dtype == ar.dtype == src.dtype
                assert av.shape == ar.shape == (ar.shape[0],) + src.shape[1:]
                assert av.tobytes() == ar.tobytes()
        for a, b in itertools.combinations(out_vec, 2):
            assert not np.shares_memory(a.data, b.data)
        assert np.array_equal(m_vec.clocks, m_ref.clocks)
        assert m_vec.trace.snapshot() == m_ref.trace.snapshot()
