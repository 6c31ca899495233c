"""The one redistribution engine under every transport.

Two things the closed-form in-process path cannot show:

* the callers of the exchange route (``ResortPlan``, ``partition_sort``, the
  resort-index scatters) agree with the per-rank loops they replaced when the
  descriptor is taken apart into per-message views — under a staged algorithm
  and on the process backend;
* neither sort hands the backend a row: ``MarkingBackend`` stamps every
  float that crosses ranks, and no stamp may show in the sorted blocks.
  The partition sort's all-to-all is charged from its message counts and
  every row is gathered straight into its slot (it once delivered the rows
  and merged them again); the merge sort's comparator rounds are charged
  and merged in the sort's flat block.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from redistribution_oracles import (
    ResortPlanLoop,
    apply_resort_loop,
    assert_same_arrays,
    invert_indices_loop,
    observed,
    partition_sort_loop,
    restore_results_loop,
)
from repro.backend import ExecutionBackend
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.plan import ResortPlan
from repro.core.resort import apply_resort, initial_numbering, invert_indices
from repro.core.restore import restore_results
from repro.simmpi import Machine
from repro.simmpi.collectives import Exchange, deliver_inprocess
from repro.sorting.merge_sort import merge_exchange_sort
from repro.sorting.partition_sort import partition_sort

P = 5


def scattered(seed, nprocs=P, n=37):
    """A random reordering: ``origloc`` per current rank, the old and the new
    counts (empty ranks on both sides likely)."""
    rng = np.random.default_rng(seed)
    old_counts = np.bincount(rng.integers(0, nprocs, n) % (nprocs - 1), minlength=nprocs)
    new_counts = np.bincount(rng.integers(1, nprocs, n), minlength=nprocs)
    numbering = np.concatenate(initial_numbering(old_counts))
    origloc = np.split(numbering[rng.permutation(n)], np.cumsum(new_counts)[:-1])
    return origloc, old_counts.tolist(), new_counts.tolist()


@pytest.mark.timeout(300)
def test_resort_pipeline_matches_the_loops(make_machine):
    """invert -> plan compile -> fused execute -> one-shot apply -> restore,
    loops on one machine and the engine on its twin."""
    origloc, old_counts, new_counts = scattered(11)
    rng = np.random.default_rng(12)
    columns = [
        [rng.random((c, 3)) for c in old_counts],
        [rng.random((c, 2, 2)).astype(np.float32) for c in old_counts],
        [rng.integers(0, 1 << 40, c) for c in old_counts],
    ]
    data = [ColumnBlock(vel=columns[0][r], ident=columns[2][r]) for r in range(P)]
    pots = [rng.random(c) for c in new_counts]
    fields = [rng.random((c, 3)) for c in new_counts]

    def pipeline(machine, invert, plan_type, apply, restore):
        indices = invert(machine, origloc, old_counts, "resort_index")
        plan = plan_type(machine, indices, old_counts, new_counts)
        fused = plan.execute(columns)
        applied = apply(machine, indices, data, new_counts, "resort")
        particles = ParticleSet(
            [np.zeros((c, 3)) for c in old_counts], [np.zeros(c) for c in old_counts]
        )
        restore(machine, origloc, pots, fields, particles, old_counts)
        arrays = list(indices) + [a for col in fused for a in col]
        arrays += [b[name] for b in applied for name in ("vel", "ident")]
        return arrays + list(particles.pot) + list(particles.field), dataclasses.asdict(plan.stats)

    want_machine, machine = make_machine(P), make_machine(P)
    want, want_stats = pipeline(
        want_machine, invert_indices_loop, ResortPlanLoop, apply_resort_loop, restore_results_loop
    )
    got, got_stats = pipeline(machine, invert_indices, ResortPlan, apply_resort, restore_results)
    assert_same_arrays(got, want)
    assert got_stats == want_stats
    assert observed(machine) == observed(want_machine)


def keyed_blocks(seed, nprocs=P, n=60):
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, nprocs, n)
    return [
        ColumnBlock(
            key=rng.integers(0, 12, int((owner == r).sum())).astype(np.uint64),
            val=rng.random(int((owner == r).sum())) + 1.0,
        )
        for r in range(nprocs)
    ]


@pytest.mark.timeout(300)
def test_partition_sort_matches_the_loop(make_machine):
    want_machine, machine = make_machine(P), make_machine(P)
    want = partition_sort_loop(want_machine, keyed_blocks(5), "key", "sort")
    got = partition_sort(machine, keyed_blocks(5), "key", "sort")
    for g, w in zip(got, want):
        assert_same_arrays(g.payload(), w.payload())
    assert observed(machine) == observed(want_machine)


# ------------------------------------------------ delivered, not remembered

MARK = -7.0


class MarkingBackend(ExecutionBackend):
    """In-process delivery that stamps what it transports: every float array
    crossing ranks arrives as a copy filled with :data:`MARK` (keys and
    control messages are integers and arrive intact).  Self-transfers keep
    the original object, like the real engines; of an exchange descriptor
    the rows of every inter-rank message are stamped."""

    name = "marking"

    @staticmethod
    def _mark(payload):
        def stamped(arr):
            return np.full_like(arr, MARK) if arr.dtype.kind == "f" else arr

        if isinstance(payload, np.ndarray):
            return stamped(payload)
        return tuple(stamped(a) for a in payload)

    def deliver(self, sends, nprocs):
        if isinstance(sends, Exchange):
            columns, recv_offsets = deliver_inprocess(sends, nprocs)
            # the received rows are grouped by destination, then source
            by_dst = np.argsort(sends.msg_dst, kind="stable")
            crossed = np.repeat(
                (sends.msg_src != sends.msg_dst)[by_dst], np.diff(sends.row_ptr)[by_dst]
            )
            for column in columns:
                if column.dtype.kind == "f":
                    column[crossed] = MARK
            return columns, recv_offsets
        return deliver_inprocess(
            [
                {dst: (p if dst == src else self._mark(p)) for dst, p in targets.items()}
                for src, targets in enumerate(sends)
            ],
            nprocs,
        )

    def route(self, transfers, nprocs):
        return [p if dst == src else self._mark(p) for src, dst, p in transfers]


def sort_under(backend, sort):
    machine = Machine(P)
    if backend is not None:
        machine.attach_backend(backend)
    blocks = keyed_blocks(21)
    for r, b in enumerate(blocks):
        # every row remembers where it started (an integer column: unmarked)
        b["home"] = np.full(b.n, r, dtype=np.int64)
    return sort(machine, blocks), machine


@pytest.mark.parametrize(
    "sort",
    [
        lambda machine, blocks: partition_sort(machine, blocks, "key", "sort"),
        lambda machine, blocks: merge_exchange_sort(machine, blocks, "key", "sort")[0],
    ],
    ids=["partition_sort", "merge_exchange_sort"],
)
def test_sorts_return_what_was_delivered(sort):
    """Both sorts are charged, not transported: the partition sort's
    all-to-all is charged from its message counts and gathers every row into
    its slot, and a merge-sort round merges its windows in the sort's one
    flat block.  Nothing either returns is marked, though many rows end on
    another rank than they started on, and the modeled charges do not see
    the difference."""
    bare, bare_machine = sort_under(None, sort)
    marked, marked_machine = sort_under(MarkingBackend(), sort)
    moved = 0
    for rank, (b, m) in enumerate(zip(bare, marked)):
        np.testing.assert_array_equal(m["key"], b["key"])
        np.testing.assert_array_equal(m["home"], b["home"])
        moved += int((m["home"] != rank).sum())
        np.testing.assert_array_equal(m["val"], b["val"])
    assert moved > 10
    assert [c.hex() for c in marked_machine.clocks] == [c.hex() for c in bare_machine.clocks]
    assert marked_machine.trace.items() == bare_machine.trace.items()
