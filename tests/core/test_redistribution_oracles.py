"""The vectorized redistribution held to the per-rank loops it replaced.

``tests/redistribution_oracles.py`` keeps the old bodies of
``fine_grained_redistribute``, ``ghost_distribution``, the FMM halo
exchange, ``ResortPlan``, ``partition_sort``, the three resort-index
scatters and the pair-by-pair ``merge_exchange_sort``; every property here runs both on the same input and demands the
same delivered rows *in the same order* and the same charges: the clock
vector bit for bit, every ``Trace`` row and the auditor's whole state.
"""

import contextlib
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import redistribution_oracles
from redistribution_oracles import (
    ResortPlanLoop,
    apply_resort_loop,
    assert_same_arrays,
    exchange_route_argsort,
    fine_grained_redistribute_loop,
    ghost_distribution_loop,
    ghost_distribution_rows,
    halo_exchange_loop,
    invert_indices_loop,
    merge_exchange_sort_pairwise,
    observed,
    owned_copies_by_origin,
    partition_sort_loop,
    restore_results_loop,
)
from round_oracles import FunnelLog
from repro.core.fine_grained import exchange_route, fine_grained_redistribute, stable_order
from repro.core.handle import fcs_init
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.plan import ResortPlan
from repro.core.resort import apply_resort, invert_indices, pack_resort_index
from repro.core.restore import restore_results
from repro.simmpi.cart import CartGrid
from repro.simmpi.machine import Machine
from repro.solvers.fmm import solver as fmm_solver
from repro.solvers.p2nfft.solver import ghost_distribution
from repro.sorting.batcher import merge_exchange_rounds
from repro.sorting.merge_sort import merge_exchange_sort
from repro.sorting.partition_sort import partition_sort
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


ROUTE_FIELDS = ("row_index", "msg_src", "msg_dst", "row_ptr")
PAIR_ORDERS = ["sorted", "reversed", "random", "by_target"]


def route_pairs(nprocs, n, m, order, seed):
    """``m`` (element, target) pairs over ``n`` rows on ``nprocs`` ranks
    (``rank_counts`` leaves ranks empty), drawn with replacement so pairs
    repeat, listed in the given order of ``(source, target)``."""
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(rank_counts(n, nprocs, seed)))).astype(np.int64)
    elements = rng.integers(0, n, m if n else 0)
    targets = rng.integers(0, nprocs, elements.size)
    key = (np.searchsorted(offsets, elements, side="right") - 1) * nprocs + targets
    if order == "by_target":
        key = targets
    if order != "random":
        by = np.argsort(key, kind="stable")
        if order == "reversed":
            by = by[::-1]
        elements, targets = elements[by], targets[by]
    return offsets, elements, targets


class TestExchangeRouteAgainstArgsort:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(0, 50),
        st.integers(0, 120),
        st.sampled_from(PAIR_ORDERS),
        st.integers(0, 2**16),
    )
    def test_same_route(self, nprocs, n, m, order, seed):
        """Sorted pairs (no sort at all), reversed and random ones (the packed
        value sort), repeated pairs, empty ranks, zero pairs: field for field
        the route of the stable ``argsort``."""
        offsets, elements, targets = route_pairs(nprocs, n, m, order, seed)
        got = exchange_route(offsets, elements, targets)
        want = exchange_route_argsort(offsets, elements, targets)
        assert_same_arrays(
            [getattr(got, f) for f in ROUTE_FIELDS], [getattr(want, f) for f in ROUTE_FIELDS]
        )
        dataclasses.replace(got, columns=(np.zeros(n),)).validate(nprocs)
        if order == "sorted":
            assert got.row_index is elements  # listed in order: travels as listed

    @pytest.mark.parametrize("order", PAIR_ORDERS)
    def test_bad_target_names_the_lowest_sending_rank(self, order):
        offsets, elements, targets = route_pairs(5, 30, 40, order, 3)
        targets[[7, 21]] = (5, -1)
        with pytest.raises(ValueError) as want:
            exchange_route_argsort(offsets, elements, targets)
        with pytest.raises(ValueError, match="target ranks out of range") as got:
            exchange_route(offsets, elements, targets)
        assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([np.int32, np.int64, np.uint64]),
        st.integers(0, 200),
        st.sampled_from(["random", "equal", "sorted", "reversed"]),
        st.sampled_from([1, 3, 1000, 2**31, 2**62, 2**64]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_stable_order(self, dtype, m, layout, key_range, top, seed):
        """Every key dtype — negative keys, ``uint64`` keys with bit 63 set
        (``top``), keys spanning the whole dtype — and every layout — no
        rows, one row, all keys equal, reverse order — give the permutation
        of the stable ``argsort``, through the packed value sort or its
        fallback; keys in order give ``None``, and the keys are not
        written."""
        info = np.iinfo(dtype)
        span = min(key_range, int(info.max) - int(info.min) + 1)
        low = int(info.max) + 1 - span if top else int(info.min)
        key = np.random.default_rng(seed).integers(low, low + span, m, dtype=dtype)
        if layout == "equal":
            key[:] = key[:1]
        elif layout != "random":
            key.sort()
            key = key[::-1].copy() if layout == "reversed" else key
        kept = key.copy()
        want = np.argsort(key, kind="stable")
        got = stable_order(key)
        if np.array_equal(want, np.arange(m)):
            assert got is None
        else:
            assert_same_arrays([got], [want])
        assert_same_arrays([key], [kept])

    def test_keys_too_wide_to_pack_take_the_argsort(self, monkeypatch):
        """Keys whose span and 3 position bits need 62, 63 or 64 bits are
        packed — bit 63 of the ``uint64`` composite included —, 65 bits take
        the stable ``argsort`` on the keys' own dtype."""
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *args, **kwargs: calls.append(kwargs) or argsort(*args, **kwargs)
        )
        for width in (62, 63, 64, 65):
            calls.clear()
            # keys spanning width - 3 bits, under which 5 rows need 3 position bits
            key = np.array([5, 1, 5, 0, 1], dtype=np.uint64) << np.uint64(width - 6)
            for keys in (key, key.astype(np.int64) - (1 << 62)):
                np.testing.assert_array_equal(stable_order(keys), [3, 1, 4, 0, 2])
            assert calls == ([] if width <= 64 else [{"kind": "stable"}] * 2)


#: grids narrower than 2·ring + 1 subdomains along some axis (a ghost may
#: wrap onto its owner, two onto one rank) and, for ``rc`` up to one cell
#: (ring 1) or up to two (ring 2, ``(5, 5, 5)``), grids that are not
GRIDS = st.sampled_from([
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2), (5, 1, 2),
    (3, 3, 3), (4, 3, 3), (5, 5, 5),
])


def pairs_of(route):
    """A route's ``(row, target)`` pairs, in route order."""
    return route.row_index, np.repeat(route.msg_dst, np.diff(route.row_ptr))


def placement(grid, pos, rc, seed):
    """``ghost_distribution`` over the rows of ``rank_counts`` ranks (empty
    ranks likely), and the routes the two oracles' pairs make: ``(route,
    [want, want], owner)``, ``owner`` the targets of the pairs the route
    marks as owner copies — which are exactly the pairs targeting them."""
    counts = rank_counts(pos.shape[0], grid.nprocs, seed)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    got, owned = ghost_distribution(grid, pos, rc, offsets)
    wants = [exchange_route_argsort(offsets, *oracle(grid, pos, rc))
             for oracle in (ghost_distribution_rows, ghost_distribution_loop)]
    elements, targets = pairs_of(got)
    owner = np.full(pos.shape[0], -1, dtype=np.int64)
    owner[elements[owned]] = targets[owned]
    np.testing.assert_array_equal(owned, np.flatnonzero(targets == owner[elements]))
    return got, wants, owner


def assert_same_route(got, want):
    assert_same_arrays(
        [getattr(got, f) for f in ROUTE_FIELDS], [getattr(want, f) for f in ROUTE_FIELDS]
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


def hair_outside(pos, grid, rng):
    """Move a few positions a hair below the lower box face (``np.mod``
    rounds them *onto* the upper edge) and exactly onto either edge."""
    pos = pos.copy()
    n = pos.shape[0]
    rows = np.flatnonzero(rng.random(n) < 0.25)
    axis = rng.integers(0, 3, rows.size)
    kind = rng.integers(0, 3, rows.size)
    lower = grid.offset[axis]
    pos[rows, axis] = np.choose(
        kind, [np.nextafter(lower, -np.inf), lower, lower + grid.box[axis]]
    )
    return pos


class TestGhostDistributionAgainstLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        GRIDS,
        st.integers(0, 60),
        st.floats(0.02, 2.3),
        st.sampled_from(["inside", "faces", "hair"]),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_same_pairs(self, dims, n, rc_in_cells, special, shifted, seed):
        """Small dims wrap two offsets onto one rank (the dedup case),
        ``rc`` above one or two cells reaches the second and third ring;
        positions lie outside the box, on subdomain faces, and a hair below
        the lower box face."""
        rng = np.random.default_rng(seed)
        box = np.array([7.0, 5.0, 6.0])
        offset = np.array([-1.0, 0.5, 2.0]) if shifted else np.zeros(3)
        grid = CartGrid(int(np.prod(dims)), box, offset, dims=dims)
        rc = rc_in_cells * float(grid.cell.min())
        # a few positions outside the box: they wrap
        pos = offset + (rng.random((n, 3)) * 1.2 - 0.1) * box
        if special == "faces":
            pos = on_faces(pos, grid, rng)
        elif special == "hair":
            pos = hair_outside(pos, grid, rng)
        route, wants, owner = placement(grid, pos, rc, seed)
        # field for field the route the stable ``argsort`` makes of either
        # oracle's pairs: the same messages, rows in the same order
        for want in wants:
            assert_same_route(route, want)
        dataclasses.replace(route, columns=(np.zeros(n),)).validate(grid.nprocs)
        # the owner it hands back is the one non-ghost target of every element
        assert owner.dtype == np.int64 and owner.shape == (n,)
        w = np.mod(pos - offset, box)
        np.testing.assert_array_equal(
            owner, grid.rank_of_positions(offset + np.where(w < box, w, 0.0))
        )
        elements, targets = pairs_of(route)
        owned = elements[targets == owner[elements]]
        np.testing.assert_array_equal(np.bincount(owned, minlength=n), 1)

    @pytest.mark.parametrize(
        "dims, narrow",
        [((4, 2, 2), True), ((2, 2, 2), True), ((3, 3, 3), False), ((4, 4, 3), False)],
    )
    @pytest.mark.parametrize("rc_in_cells", [0.4, 0.99])
    def test_narrow_and_wide_grids(self, dims, narrow, rc_in_cells):
        """A ring of one subdomain: a grid narrower than three subdomains
        along some axis takes the wrap filter and the dedup, a wider one
        neither, and the route is the oracles' either way.  Rows sit on
        faces and a hair outside the box; ``rank_counts`` leaves ranks
        empty."""
        assert any(d < 3 for d in dims) == narrow
        rng = np.random.default_rng(11)
        box = np.array([6.0, 5.0, 4.0])
        grid = CartGrid(int(np.prod(dims)), box, dims=dims)
        pos = hair_outside(on_faces(rng.random((300, 3)) * box, grid, rng), grid, rng)
        route, wants, _owner = placement(grid, pos, rc_in_cells * grid.cell.min(), 3)
        for want in wants:
            assert_same_route(route, want)
        # every (row, target) pair once, wrapped or not
        rows, targets = pairs_of(route)
        assert np.unique(rows * grid.nprocs + targets).size == rows.size

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
        route, _owned = ghost_distribution(grid, pos, rc, np.array([0] + [len(pos)] * grid.nprocs))
        elems, targets = pairs_of(route)
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


@contextlib.contextmanager
def spying(module, name):
    """Record every ``(args, kwargs)`` ``module.name`` is called with."""
    original, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(module, name, spy)
    try:
        yield calls
    finally:
        setattr(module, name, original)


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

    def build(compute="full"):
        machine = audited(nprocs)
        fcs = fcs_init("fmm", machine, order=2, depth=depth, lattice_shells=1, compute=compute)
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
        consecutive ranks; with n < P some ranks are empty.  Skipping the
        force arithmetic, the same exchange is charged and no copy is
        delivered."""
        build = fmm_state(nprocs, n, seed, periodic, clustered)
        want_machine, want_solver, blocks = build()
        with spying(redistribution_oracles, "fine_grained_redistribute_loop") as loop_calls:
            want = halo_exchange_loop(want_solver, blocks, want_solver._ownership(blocks))
        machine, solver, blocks = build()
        with spying(fmm_solver, "redistribute_flat") as calls:
            got = solver._halo_exchange(blocks, solver._ownership(blocks))
        assert_same_blocks(got, want)
        assert observed(machine) == observed(want_machine)
        # the route it built from its box pairs is the stable ``argsort``'s
        # route of the loop's (element, target) pairs
        (_loop_machine, halo_in, dist), _kwargs = loop_calls[0]
        pairs = [dist(r, b) for r, b in enumerate(halo_in)]
        offsets = blocks.offsets
        want_route = exchange_route_argsort(
            offsets,
            np.concatenate([e + offsets[r] for r, (e, _t) in enumerate(pairs)]),
            np.concatenate([t for _e, t in pairs]),
        )
        (_machine, _block, route, _phase, _comm), _kwargs = calls[0]
        assert_same_route(route, want_route)

        skip_machine, skip_solver, blocks = build("skip")
        skipped = skip_solver._halo_exchange(blocks, skip_solver._ownership(blocks))
        assert skipped.data.names() == got.data.names()
        assert skipped.data.n == 0 and not skipped.offsets.any()
        assert observed(skip_machine) == observed(want_machine)


# ------------------------------------------------ resort plan and scatters

SHAPES = ["random", "identity", "to_one"]
DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.complex128]
TRAILING = [(), (3,), (2, 2)]


def resort_problem(nprocs, n, seed, shape="random"):
    """Resort indices sending the ``n`` rows of ``rank_counts`` ranks
    anywhere (``random``), nowhere (``identity``) or all to the last rank
    (``to_one``), to a random position there."""
    rng = np.random.default_rng(seed)
    old_counts = rank_counts(n, nprocs, seed)
    src = np.repeat(np.arange(nprocs), old_counts)
    if shape == "identity":
        dst = src.copy()
        pos = np.arange(n) - np.concatenate(([0], np.cumsum(old_counts)))[src]
    else:
        dst = np.full(n, nprocs - 1) if shape == "to_one" else rng.integers(0, nprocs, n)
        pos = np.empty(n, dtype=np.int64)
        for r in range(nprocs):
            where = np.flatnonzero(dst == r)
            pos[where] = rng.permutation(where.size)
    new_counts = np.bincount(dst, minlength=nprocs).tolist()
    cuts = np.cumsum(old_counts)[:-1]
    return np.split(pack_resort_index(dst, pos), cuts), old_counts, new_counts


def mixed_columns(layout, counts, seed):
    """``columns[c][r]``: one array per ``(dtype, trailing)`` and rank."""
    rng = np.random.default_rng(seed)
    return [
        [(rng.random((c,) + trailing) * 200).astype(dtype) for c in counts]
        for dtype, trailing in layout
    ]


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for got_col, want_col in zip(got, want):
        assert_same_arrays(got_col, want_col)


class TestResortPlanAgainstLoop:
    @staticmethod
    def run(plan_type, machine, problem, columns, comm):
        indices, old_counts, new_counts = problem
        plan = plan_type(machine, indices, old_counts, new_counts, comm=comm)
        out = [plan.execute(columns), plan.execute(columns[:1], phase="again")]
        return out, dataclasses.asdict(plan.stats)

    def check(self, nprocs, problem, columns, comm):
        want_machine, machine = audited(nprocs), audited(nprocs)
        want, want_stats = self.run(ResortPlanLoop, want_machine, problem, columns, comm)
        got, got_stats = self.run(ResortPlan, machine, problem, columns, comm)
        for g, w in zip(got, want):
            assert_same_columns(g, w)
        assert got_stats == want_stats
        assert observed(machine) == observed(want_machine)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 7),
        st.integers(0, 60),
        st.integers(0, 2**16),
        st.sampled_from(SHAPES),
        st.lists(
            st.tuples(st.sampled_from(DTYPES), st.sampled_from(TRAILING)), min_size=1, max_size=7
        ),
        COMMS,
    )
    def test_same_rows_charges_and_stats(self, nprocs, n, seed, shape, layout, comm):
        """1-7 columns of mixed dtypes and trailing shapes; ``rank_counts``
        leaves ranks empty, n = 0 and n < P are drawn."""
        problem = resort_problem(nprocs, n, seed, shape)
        self.check(nprocs, problem, mixed_columns(layout, problem[1], seed), comm)

    @pytest.mark.parametrize("comm", ["alltoall", "neighborhood"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("nprocs, n", [(1, 5), (4, 0), (5, 2), (3, 10)])
    def test_corner_sizes(self, nprocs, n, shape, comm):
        problem = resort_problem(nprocs, n, 3, shape)
        layout = [(np.float64, (3,)), (np.float64, (3,)), (np.int64, ())]
        self.check(nprocs, problem, mixed_columns(layout, problem[1], 3), comm)


class TestScattersAgainstLoop:
    @staticmethod
    def origloc_of(indices, new_counts):
        """The original-location numbering a solver would carry: row ``p``
        of rank ``r`` names the (rank, position) it came from."""
        nprocs = len(indices)
        new_offsets = np.concatenate(([0], np.cumsum(new_counts)))
        origloc = np.empty(int(new_offsets[-1]), dtype=np.int64)
        for src, idx in enumerate(indices):
            dst, pos = idx >> 32, idx & 0xFFFFFFFF
            origloc[new_offsets[dst] + pos] = pack_resort_index(
                np.full(idx.shape[0], src), np.arange(idx.shape[0])
            )
        return np.split(origloc, new_offsets[1:-1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7), st.integers(0, 60), st.integers(0, 2**16), st.sampled_from(SHAPES), COMMS
    )
    def test_invert_indices(self, nprocs, n, seed, shape, comm):
        indices, old_counts, new_counts = resort_problem(nprocs, n, seed, shape)
        origloc = self.origloc_of(indices, new_counts)
        want_machine, machine = audited(nprocs), audited(nprocs)
        want = invert_indices_loop(want_machine, origloc, old_counts, "x", comm=comm)
        got = invert_indices(machine, origloc, old_counts, "x", comm=comm)
        assert_same_columns([got], [want])
        assert_same_columns([got], [indices])
        assert observed(machine) == observed(want_machine)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7),
        st.integers(0, 60),
        st.integers(0, 2**16),
        st.sampled_from(SHAPES),
        st.lists(
            st.tuples(st.sampled_from(DTYPES), st.sampled_from(TRAILING)), min_size=1, max_size=4
        ),
        COMMS,
    )
    def test_apply_resort(self, nprocs, n, seed, shape, layout, comm):
        indices, old_counts, new_counts = resort_problem(nprocs, n, seed, shape)
        columns = mixed_columns(layout, old_counts, seed)
        data = [
            ColumnBlock(**{f"c{c}": col[r] for c, col in enumerate(columns)})
            for r in range(nprocs)
        ]
        want_machine, machine = audited(nprocs), audited(nprocs)
        want = apply_resort_loop(want_machine, indices, data, new_counts, "x", comm=comm)
        got = apply_resort(machine, indices, data, new_counts, "x", comm=comm)
        assert_same_blocks(got, want)
        assert observed(machine) == observed(want_machine)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 60), st.integers(0, 2**16), st.sampled_from(SHAPES))
    def test_restore_results(self, nprocs, n, seed, shape):
        indices, old_counts, new_counts = resort_problem(nprocs, n, seed, shape)
        origloc = self.origloc_of(indices, new_counts)
        rng = np.random.default_rng(seed)
        pots = [rng.random(c) for c in new_counts]
        fields = [rng.random((c, 3)) for c in new_counts]

        def particles():
            return ParticleSet([np.zeros((c, 3)) for c in old_counts], [np.zeros(c) for c in old_counts])

        want_machine, machine = audited(nprocs), audited(nprocs)
        want_set, got_set = particles(), particles()
        restore_results_loop(want_machine, origloc, pots, fields, want_set, old_counts)
        restore_results(machine, origloc, pots, fields, got_set, old_counts)
        assert_same_columns([got_set.pot, got_set.field], [want_set.pot, want_set.field])
        assert observed(machine) == observed(want_machine)


# ---------------------------------------------------------- partition sort

def keyed_blocks(counts, seed, key_range):
    """Blocks with few distinct keys (duplicates straddle every boundary),
    an id, a vector and a positive work weight."""
    rng = np.random.default_rng(seed)
    blocks, base = [], 0
    for c in counts:
        blocks.append(ColumnBlock(
            key=rng.integers(0, key_range, c).astype(np.uint64),
            ident=np.arange(base, base + c, dtype=np.int64),
            vec=rng.random((c, 3)),
            work=rng.random(c) + 0.1,
        ))
        base += c
    return blocks


class TestPartitionSortAgainstLoop:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 7),
        st.integers(0, 80),
        st.integers(0, 2**16),
        st.sampled_from([3, 1000]),
        st.sampled_from(["own_counts", "target_counts", "weighted"]),
    )
    def test_same_sorted_blocks_and_charges(self, nprocs, n, seed, key_range, mode):
        counts = rank_counts(n, nprocs, seed)
        kwargs = {}
        if mode == "target_counts":
            kwargs["target_counts"] = rank_counts(n, nprocs, seed + 1)
        elif mode == "weighted":
            kwargs["balance_key"] = "work"
        want_machine, machine = audited(nprocs), audited(nprocs)
        want = partition_sort_loop(
            want_machine, keyed_blocks(counts, seed, key_range), "key", "sort", **kwargs
        )
        got = partition_sort(machine, keyed_blocks(counts, seed, key_range), "key", "sort", **kwargs)
        assert_same_blocks(got, want)
        assert observed(machine) == observed(want_machine)



# ------------------------------------------------------ merge-exchange sort

def merge_input(counts, seed, key_range, shape):
    """``keyed_blocks`` in the order the merge network meets in practice:
    ``random``, globally ``sorted`` (no window, no data moves) or ``almost``
    sorted (the method-B steady state: a few rows a little out of place)."""
    blocks = keyed_blocks(counts, seed, key_range)
    if shape == "random":
        return blocks
    flat = ColumnBlock.concat(blocks) if blocks else None
    keys = np.sort(flat["key"])
    if shape == "almost" and keys.shape[0]:
        rng = np.random.default_rng(seed + 7)
        moved = rng.integers(0, keys.shape[0], max(1, keys.shape[0] // 8))
        keys[moved] += rng.integers(0, max(2, key_range // 4), moved.shape[0]).astype(np.uint64)
    flat["key"] = keys
    cuts = np.concatenate(([0], np.cumsum(counts)))
    return [flat.row_slice(lo, hi).copy() for lo, hi in zip(cuts[:-1], cuts[1:])]


class TestMergeExchangeSortAgainstPairwise:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 9),
        st.integers(0, 120),
        st.integers(0, 2**16),
        st.sampled_from([3, 1000]),
        st.sampled_from(["random", "sorted", "almost"]),
        st.booleans(),
        st.booleans(),
    )
    def test_same_blocks_flag_and_charges(
        self, nprocs, n, seed, key_range, shape, presorted, verify
    ):
        counts = rank_counts(n, nprocs, seed)

        def blocks():
            made = merge_input(counts, seed, key_range, shape)
            if presorted:  # the caller's promise: every block locally sorted
                made = [b.take(np.argsort(b["key"], kind="stable")) for b in made]
            return made

        self.check(nprocs, blocks, presorted, verify)

    @staticmethod
    def check(nprocs, blocks, presorted=False, verify=True):
        """Rows, flag, every charge in order (op, messages, bytes, clocks) and
        the auditor's ledger; returns the charge stream."""
        want_machine, machine = audited(nprocs), audited(nprocs)
        want_machine.obs, machine.obs = FunnelLog(), FunnelLog()
        want, want_ok = merge_exchange_sort_pairwise(
            want_machine, blocks(), "key", "sort", presorted=presorted, verify=verify
        )
        given_blocks = blocks()
        got, ok = merge_exchange_sort(
            machine, given_blocks, "key", "sort", presorted=presorted, verify=verify
        )
        assert ok == want_ok
        assert_same_blocks(got, want)
        assert machine.obs.stream == want_machine.obs.stream
        assert observed(machine) == observed(want_machine)
        # the rounds write into the sort's own flat copy, never the caller's rows
        assert_same_blocks(given_blocks, blocks())
        return machine.obs.stream

    @pytest.mark.parametrize("nprocs", [5, 6, 8])
    @pytest.mark.parametrize("case", ["empty_ranks", "equal_keys", "reversed"])
    def test_corner_rounds(self, nprocs, case):
        """Ranks left empty, every key equal (no pair overlaps), and runs in
        reverse order, where every pair of the first round overlaps — on
        rank counts that are and are not a power of two."""
        counts = [7] * nprocs
        if case == "empty_ranks":
            counts[1::2] = [0] * len(counts[1::2])
        keys = np.arange(sum(counts), dtype=np.uint64)[::-1] % 23
        if case == "equal_keys":
            keys[:] = 5
        elif case == "reversed":
            keys = np.arange(sum(counts), dtype=np.uint64)[::-1].copy()
        cuts = np.cumsum(counts)[:-1]

        def blocks():
            return [
                ColumnBlock(key=k, ident=np.arange(k.size) + 100 * r, vec=np.full((k.size, 3), r))
                for r, k in enumerate(np.split(keys.copy(), cuts))
            ]

        stream = self.check(nprocs, blocks)
        rounds = [e for e in stream if e[0] == "charge" and e[2] == "exchange_pairs"]
        if case == "equal_keys":
            # control messages only: no window moves
            assert len(rounds) == len(merge_exchange_rounds(nprocs))
        if case == "reversed":
            # the first round's window exchange names every pair the control
            # exchange named
            control, windows = rounds[0], rounds[1]
            assert windows[6] == control[6] == 2 * len(merge_exchange_rounds(nprocs)[0])


#: rank counts of the grid placement: every grid ``CartGrid`` picks for
#: them, wide and narrow, and a single rank
PLACEMENT_RANKS = st.sampled_from([1, 2, 3, 4, 8, 27, 64])


def placement_positions(layout, n, grid, rng):
    """``n`` positions laid out to be hostile to the placement."""
    box, offset = grid.box, grid.offset
    if layout == "one cell":
        # every particle inside one subdomain, some of them on one point
        corner = offset + rng.integers(0, grid.dims) * grid.cell
        pos = corner + rng.random((n, 3)) * grid.cell
        pos[: n // 3] = pos[:1]
        return pos
    pos = offset + (rng.random((n, 3)) * 1.2 - 0.1) * box
    if layout == "faces":
        return on_faces(pos, grid, rng)
    if layout == "upper face":
        # rows a hair below the upper box face, drawn with repetition
        axis = rng.integers(0, 3, n)
        pos[np.arange(n), axis] = np.nextafter(offset[axis] + box[axis], -np.inf)
        return pos[np.sort(rng.integers(0, n, n))] if n else pos
    return pos


class TestGridPlacementAgainstOrigins:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        PLACEMENT_RANKS,
        st.integers(0, 150),
        st.floats(0.05, 1.6),
        st.sampled_from(["inside", "faces", "one cell", "upper face"]),
        st.sampled_from([None, 0.01]),
        st.integers(0, 2**16),
    )
    def test_same_owned_copies(self, nprocs, n, rc_in_cells, layout, max_move, seed):
        """``_place`` takes the owner copies the route marked, at the
        receive positions the route says they land at; the oracle picks them
        from the origin every delivered copy carries.  Same positions, same
        owned rows bit for bit — on narrow grids where ghosts wrap onto the
        owner and the dedup runs, with empty ranks, fewer rows than ranks,
        no rows at all, every row in one subdomain and repeated rows a hair
        below the upper face; and the ``fcs_run`` of that input completes.
        Skipping the force arithmetic, the transport delivers those owned
        rows and nothing else, charged the same."""
        rng = np.random.default_rng(seed)
        box, offset = np.array([7.0, 5.0, 6.0]), np.array([-1.0, 0.5, 2.0])
        grid = CartGrid(nprocs, box, offset)
        # the tuner admits a cutoff up to half the shortest box side
        rc = min(rc_in_cells * float(grid.cell.min()), 2.5)
        pos = placement_positions(layout, n, grid, rng)
        counts = rank_counts(n, nprocs, seed)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        q = rng.uniform(-1.0, 1.0, n)
        particles = ParticleSet(
            [pos[a:b] for a, b in zip(offsets[:-1], offsets[1:])],
            [q[a:b] for a, b in zip(offsets[:-1], offsets[1:])],
            capacity_factor=float(nprocs),
        )
        solvers = {}
        for compute in ("full", "skip"):
            fcs = fcs_init("p2nfft", Machine(nprocs), cutoff=rc, compute="skip")
            fcs.set_common(box=box, offset=offset, periodic=True)
            fcs.set_resort(True)
            fcs.tune(particles)
            assert fcs.solver.grid.dims == grid.dims
            # a full-compute placement without the near-field cells and mesh
            # a full-compute tune builds (at a tiny cutoff, gigabytes of cells)
            fcs.solver._set_compute_mode(compute)
            solvers[compute] = fcs

        owned, local_all, _comm, _strategy = solvers["full"].solver._place(particles, max_move)
        w = np.mod(pos - offset, box)
        owner = grid.rank_of_positions(offset + np.where(w < box, w, 0.0))
        want_own, want = owned_copies_by_origin(local_all, owner, offsets)
        route, marked = ghost_distribution(grid, pos, rc, offsets)
        assert_same_arrays([route.recv_positions(marked)], [want_own])
        np.testing.assert_array_equal(owned.offsets, want.offsets)
        assert_same_blocks([owned.data], [want.data])

        skipped, delivered, _comm, _strategy = solvers["skip"].solver._place(particles, max_move)
        assert delivered is skipped
        np.testing.assert_array_equal(skipped.offsets, want.offsets)
        assert_same_blocks([skipped.data], [want.data])
        np.testing.assert_array_equal(solvers["skip"].solver.copies, local_all.counts)
        assert [i for i in solvers["skip"].machine.trace.items() if i[0] == "sort"] == [
            i for i in solvers["full"].machine.trace.items() if i[0] == "sort"
        ]

        fcs = solvers["skip"]
        report = fcs.run(particles)
        if report.changed:
            np.testing.assert_array_equal(report.new_counts, want.counts)
