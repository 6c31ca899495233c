"""Exchanges whose slots are known, held to the bodies that delivered them.

``deliver_to_slots`` (method A's restore, method B's index inversion and the
one-shot resort), ``ResortPlan`` and ``partition_sort`` know every row's
final slot before anything moves: they charge their exchange from a counted
route (:func:`~repro.core.fine_grained.counted_route`, which lists no row)
and gather every column once, straight into place.
``tests/redistribution_oracles.py`` keeps the bodies that delivered every
row in receive order and then moved it again.  Every property runs both on
twin audited machines — closed-form, staged (``bruck``) and on the process
backend — and demands the same output and the same charges bit for bit:
:func:`observed` is the clock vector as hex, every trace row and counter,
and the auditor's whole state.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redistribution_oracles import (
    ResortPlanDelivered,
    assert_same_arrays,
    deliver_to_slots_delivered,
    observed,
    partition_sort_delivered,
)
from repro.core import resort, restore
from repro.core.fine_grained import counted_route, exchange_route
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.plan import ResortPlan
from repro.core.resort import apply_resort, invert_indices, pack_resort_index
from repro.core.restore import restore_results
from repro.simmpi import Machine
from repro.simmpi.collectives import alltoallv, message_triples
from repro.sorting.merge_sort import local_sort
from repro.sorting.partition_sort import partition_sort
from repro.verify.audit import enable_auditing

VARIANTS = ("direct", "bruck", "process")
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
#: where the rows go: anywhere, nowhere (the steady state), all to one rank
SHAPES = ("random", "identity", "to_one")


def twins(variant, nprocs, backend):
    """Two audited machines of one variant: one for the oracle, one for
    production."""
    machines = []
    for _ in range(2):
        machine = Machine(nprocs)
        if variant == "process":
            machine.attach_backend(backend)
        elif variant == "bruck":
            machine.set_collective_algos("bruck")
        enable_auditing(machine)
        machines.append(machine)
    return machines


def rank_counts(n, nprocs, rng):
    """``n`` rows over ``nprocs`` ranks, empty ranks likely."""
    cuts = np.sort(rng.integers(0, n + 1, nprocs - 1))
    return np.diff(np.concatenate(([0], cuts, [n]))).tolist()


def resort_problem(nprocs, n, seed, shape):
    """``(indices, old_counts, new_counts)``: each original row's packed
    target, one array per rank, sending the rows as ``shape`` says."""
    rng = np.random.default_rng(seed)
    old_counts = rank_counts(n, nprocs, rng)
    src = np.repeat(np.arange(nprocs), old_counts)
    if shape == "identity":
        dst = src
    elif shape == "to_one":
        dst = np.full(n, nprocs - 1)
    else:
        dst = rng.integers(0, nprocs, n)
    pos = np.empty(n, dtype=np.int64)
    for r in range(nprocs):
        where = np.flatnonzero(dst == r)
        pos[where] = rng.permutation(where.size)
    new_counts = np.bincount(dst, minlength=nprocs).tolist()
    return np.split(pack_resort_index(dst, pos), np.cumsum(old_counts)[:-1]), old_counts, new_counts


def origloc_of(indices, new_counts):
    """The original location of every row in its new place: what a solver
    carries through its reordering."""
    new_offsets = np.concatenate(([0], np.cumsum(new_counts))).astype(np.int64)
    origloc = np.empty(int(new_offsets[-1]), dtype=np.int64)
    for src, idx in enumerate(indices):
        origloc[new_offsets[idx >> 32] + (idx & 0xFFFFFFFF)] = pack_resort_index(
            np.full(idx.shape[0], src), np.arange(idx.shape[0])
        )
    return RankMajor(origloc, new_offsets)


def columns_of(counts, seed):
    """Three columns of three dtypes and trailing shapes, one array per rank."""
    rng = np.random.default_rng(seed)
    return [
        [rng.random((c, 3)) for c in counts],
        [rng.random((c, 2, 2)).astype(np.float32) for c in counts],
        [rng.integers(0, 1 << 40, c) for c in counts],
    ]


@contextlib.contextmanager
def delivered_scatter():
    """``deliver_to_slots`` swapped for the body that delivered the rows
    first, in both modules that call it."""
    original = resort.deliver_to_slots
    resort.deliver_to_slots = restore.deliver_to_slots = deliver_to_slots_delivered
    try:
        yield
    finally:
        resort.deliver_to_slots = restore.deliver_to_slots = original


def assert_same_blocks(got, want):
    assert got.data.names() == want.data.names()
    assert_same_arrays(
        [*got.data.payload(), got.offsets], [*want.data.payload(), want.offsets]
    )


# ------------------------------------------------------------ counted route

@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7), st.integers(0, 60), st.integers(0, 2**16),
    st.sampled_from(("random", "sorted", "to_one", "out_of_range")),
)
def test_counted_route_is_charged_as_the_listed_one(nprocs, n, seed, targets_are):
    """Bound to the same columns, the counted route's ``(src, dst, nbytes)``
    triples are the listed route's; it lists no row and is a valid table.  A
    target that is not a rank raises the listed route's error, naming the
    same rank."""
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(rank_counts(n, nprocs, rng)))).astype(np.int64)
    targets = rng.integers(0, nprocs, n)
    if targets_are == "sorted":
        targets.sort()
    elif targets_are == "to_one":
        targets[:] = nprocs - 1
    elif targets_are == "out_of_range" and n:
        targets[rng.integers(0, n, 3)] = rng.choice([-1, nprocs, nprocs + 5])
    listed_error = counted_error = None
    try:
        listed = exchange_route(offsets, np.arange(n, dtype=np.int64), targets)
    except ValueError as exc:
        listed_error = str(exc)
    try:
        counted = counted_route(offsets, targets)
    except ValueError as exc:
        counted_error = str(exc)
    assert counted_error == listed_error
    if listed_error is not None:
        return
    columns = (rng.random((n, 3)), rng.integers(0, 9, n).astype(np.uint8))
    listed, counted = (dataclasses.replace(r, columns=columns) for r in (listed, counted))
    counted.validate(nprocs)
    assert counted.row_index.size == 0
    for got, want in zip(message_triples(counted), message_triples(listed)):
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_counted_exchange_reaches_no_backend():
    """Charged in full, delivered through nothing: an exchange that lists no
    row never reaches the backend (the merge sort's windows work the same
    way); the charge is the listed route's."""

    class Refusing:
        def deliver(self, sends, nprocs):
            raise AssertionError("a counted exchange reached the backend")

    offsets = np.array([0, 3, 3, 7])
    targets = np.array([2, 0, 2, 1, 1, 0, 2])
    column = np.arange(7.0)
    listed, counted = Machine(3), Machine(3)
    counted.attach_backend(Refusing())
    for machine in (listed, counted):
        enable_auditing(machine)
    alltoallv(listed, dataclasses.replace(
        exchange_route(offsets, np.arange(7), targets), columns=(column,)
    ), "x")
    columns, recv_offsets = alltoallv(
        counted, dataclasses.replace(counted_route(offsets, targets), columns=(column,)), "x"
    )
    assert observed(counted) == observed(listed)
    assert columns[0].shape == (0,) and columns[0].dtype == column.dtype
    np.testing.assert_array_equal(recv_offsets, np.zeros(4, dtype=np.int64))


# ------------------------------------------------------ the resort scatters

@SETTINGS
@given(
    st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**16), st.sampled_from(SHAPES),
    st.sampled_from(("alltoall", "neighborhood")),
)
def test_scatters_match_the_delivered_body(process_backend, nprocs, n, seed, shape, comm):
    """Index inversion, the one-shot resort and the method-A restore: same
    rows in the same slots, same charges."""
    indices, old_counts, new_counts = resort_problem(nprocs, n, seed, shape)
    origloc = origloc_of(indices, new_counts)
    columns = columns_of(old_counts, seed)
    data = [ColumnBlock(vel=columns[0][r], ident=columns[2][r]) for r in range(nprocs)]
    rng = np.random.default_rng(seed + 1)
    pots = RankMajor(rng.random(int(sum(new_counts))), origloc.offsets)
    fields = RankMajor(rng.random((int(sum(new_counts)), 3)), origloc.offsets)

    def scatters(machine):
        inverted = invert_indices(machine, origloc, old_counts, "resort_index", comm=comm)
        applied = apply_resort(machine, indices, data, new_counts, "resort", comm=comm)
        particles = ParticleSet(
            [np.zeros((c, 3)) for c in old_counts], [np.zeros(c) for c in old_counts]
        )
        restore_results(machine, origloc, pots, fields, particles, old_counts)
        return inverted, applied, particles.block

    for variant in VARIANTS:
        want_machine, machine = twins(variant, nprocs, process_backend)
        with delivered_scatter():
            want = scatters(want_machine)
        got = scatters(machine)
        assert_same_arrays([got[0].data, got[0].offsets], [want[0].data, want[0].offsets])
        assert_same_blocks(got[1], want[1])
        assert_same_arrays(list(got[2].payload()), list(want[2].payload()))
        assert observed(machine) == observed(want_machine), variant


# ------------------------------------------------------------------ the plan

@SETTINGS
@given(
    st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**16), st.sampled_from(SHAPES),
    st.sampled_from(("alltoall", "neighborhood")),
)
def test_plan_matches_the_delivered_body(process_backend, nprocs, n, seed, shape, comm):
    """Compile, then two fused executions (three columns, then one under
    another phase): same columns, stats and charges."""
    indices, old_counts, new_counts = resort_problem(nprocs, n, seed, shape)
    columns = columns_of(old_counts, seed)

    def run(plan_type, machine):
        plan = plan_type(machine, indices, old_counts, new_counts, comm=comm)
        out = plan.execute(columns) + plan.execute(columns[2:], phase="again")
        return out, dataclasses.asdict(plan.stats)

    for variant in VARIANTS:
        want_machine, machine = twins(variant, nprocs, process_backend)
        want, want_stats = run(ResortPlanDelivered, want_machine)
        got, got_stats = run(ResortPlan, machine)
        for g, w in zip(got, want):
            assert_same_arrays([g.data, g.offsets], [w.data, w.offsets])
        assert got_stats == want_stats
        assert observed(machine) == observed(want_machine), variant


# --------------------------------------------------------- the partition sort

def keyed_rows(nprocs, n, seed, key_range):
    """Rows with few distinct keys (duplicates straddle every boundary), an
    id, a vector and a positive work weight."""
    rng = np.random.default_rng(seed)
    counts = rank_counts(n, nprocs, rng)
    block = ColumnBlock(
        key=rng.integers(0, key_range, n).astype(np.uint64),
        ident=np.arange(n, dtype=np.int64),
        vec=rng.random((n, 3)),
        work=rng.random(n) + 0.1,
    )
    return RankMajor(block, np.concatenate(([0], np.cumsum(counts))).astype(np.int64)), rng


@SETTINGS
@given(
    st.integers(1, 6), st.integers(0, 60), st.integers(0, 2**16), st.sampled_from((3, 1000)),
    st.sampled_from(("own_counts", "target_counts", "weighted", "all_to_one")),
    st.booleans(),
)
def test_partition_sort_matches_the_delivered_body(
    process_backend, nprocs, n, seed, key_range, mode, presorted
):
    """Own counts, given counts (all rows to one rank among them) or
    weighted bounds; locally sorted already (``presorted``) or not: same
    rows on the same ranks, same charges, and the caller's rows untouched."""
    rows, rng = keyed_rows(nprocs, n, seed, key_range)
    kwargs = {}
    if mode == "target_counts":
        kwargs["target_counts"] = rank_counts(n, nprocs, rng)
    elif mode == "all_to_one":
        kwargs["target_counts"] = [0] * (nprocs - 1) + [n]
    elif mode == "weighted":
        kwargs["balance_key"] = "work"
    if presorted:
        rows = local_sort(Machine(nprocs), rows, "key")
    before = [c.copy() for c in rows.data.payload()]
    for variant in VARIANTS:
        want_machine, machine = twins(variant, nprocs, process_backend)
        want = partition_sort_delivered(
            want_machine, rows, "key", "sort", presorted=presorted, **kwargs
        )
        got = partition_sort(machine, rows, "key", "sort", presorted=presorted, **kwargs)
        assert_same_blocks(got, want)
        assert observed(machine) == observed(want_machine), variant
    assert_same_arrays(list(rows.data.payload()), before)
