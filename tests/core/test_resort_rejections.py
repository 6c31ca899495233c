"""A rejected resort must not charge.

The simulator holds every target before it ships anything, so indices that
cannot be resorted — a ghost index, a target that is not a rank, a rank sent
more or fewer rows than it has slots, a slot named twice or out of range,
ragged columns — are rejected before the transport call: clocks, ``Trace``,
counters and every auditor ledger stay exactly as they were.  The plan used
to find a non-permutation only after its schedule exchange was charged (a
``resort_plan`` trace row of 2 messages / 32 B for the first case below),
and the three scatters found a count mismatch after the transfer.
"""

import dataclasses

import numpy as np
import pytest

from redistribution_oracles import observed
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.plan import ResortPlan
from repro.core.resort import GHOST_INDEX, apply_resort, invert_indices, pack_resort_index
from repro.core.restore import restore_results
from repro.simmpi.machine import Machine
from repro.verify.audit import enable_auditing

P = 3
EMPTY = np.empty(0, dtype=np.int64)


def packed(ranks, positions):
    return pack_resort_index(np.asarray(ranks, dtype=np.int64), np.asarray(positions, dtype=np.int64))


#: the message of each callable for rank 0 being sent three rows for two slots
WRONG_COUNT = "3 for 2"

#: ``(indices, counts before, counts after, message)``: rank 0 and rank 1
#: hold two rows each
BAD_INDICES = [
    # two rows -> slot 0 of rank 1, counts balance
    ([packed([1, 1], [0, 0]), packed([0, 0], [0, 1]), EMPTY], [2, 2, 0], [2, 2, 0],
     "rank 1: target positions are not a permutation"),
    # a slot beyond the rank's rows
    ([packed([1, 1], [0, 2]), packed([0, 0], [0, 1]), EMPTY], [2, 2, 0], [2, 2, 0],
     "rank 1: target positions are not a permutation"),
    # rank 0 is sent three rows for two slots; rank 1 (one for two) comes second
    ([packed([0, 1], [0, 0]), packed([0, 0], [1, 2]), EMPTY], [2, 2, 0], [2, 2, 0],
     WRONG_COUNT),
    # the lower rank is reported whatever its fault is: rank 0's duplicate
    # slot before rank 2's missing row
    ([packed([0, 0], [1, 1]), packed([1, 1], [0, 1]), EMPTY], [2, 2, 0], [2, 2, 1],
     "rank 0: target positions are not a permutation"),
    ([packed([0, 5], [0, 0]), packed([1, 1], [0, 1]), EMPTY], [2, 2, 0], [1, 2, 0],
     "rank 0: target rank"),
    ([np.array([0, GHOST_INDEX]), packed([1, 1], [0, 1]), EMPTY], [2, 2, 0], [1, 2, 0],
     "ghost"),
]
IDS = ["duplicate-slot", "slot-out-of-range", "wrong-count", "lowest-rank-first",
       "rank-out-of-range", "ghost-index"]


@pytest.fixture
def machine():
    """An audited machine with history, so "untouched" is not "empty"."""
    machine = Machine(P)
    enable_auditing(machine)
    good = [packed([1, 2], [0, 0]), packed([0], [0]), EMPTY]
    ResortPlan(machine, good, [2, 1, 0], [1, 1, 1]).execute([[np.ones(2), np.ones(1), np.ones(0)]])
    return machine


def expected(message, wrong_count):
    """The scatters leave a bad target rank to the redistribution."""
    if message == WRONG_COUNT:
        return wrong_count
    return message.replace("target rank", "target ranks")


@pytest.mark.parametrize("indices, old, new, message", BAD_INDICES, ids=IDS)
def test_rejected_plan(machine, indices, old, new, message):
    if message == WRONG_COUNT:
        message = "rank 0: 3 resort targets for 2 new-layout slots"
    before = observed(machine)
    with pytest.raises(ValueError, match=message):
        ResortPlan(machine, indices, old, new)
    assert observed(machine) == before


@pytest.mark.parametrize("indices, old, new, message", BAD_INDICES, ids=IDS)
def test_rejected_apply_resort(machine, indices, old, new, message):
    data = [ColumnBlock(x=np.zeros(c), v=np.zeros((c, 3))) for c in old]
    before = observed(machine)
    with pytest.raises(ValueError, match=expected(message, "rank 0: received 3 rows, expected 2")):
        apply_resort(machine, indices, data, new, "resort")
    assert observed(machine) == before


@pytest.mark.parametrize("indices, current, original, message", BAD_INDICES, ids=IDS)
def test_rejected_invert_indices(machine, indices, current, original, message):
    """The same tables read as original locations: ``original`` rows are
    expected back, a duplicate slot would leave another one unwritten."""
    before = observed(machine)
    wrong_count = "rank 0: received 3 index values for 2 original particles"
    with pytest.raises(ValueError, match=expected(message, wrong_count)):
        invert_indices(machine, indices, original, "resort_index")
    assert observed(machine) == before


@pytest.mark.parametrize("indices, current, original, message", BAD_INDICES, ids=IDS)
def test_rejected_restore_results(machine, indices, current, original, message):
    particles = ParticleSet([np.zeros((c, 3)) for c in original], [np.zeros(c) for c in original])
    pots = [np.zeros(c) for c in current]
    fields = [np.zeros((c, 3)) for c in current]
    before = observed(machine)
    with pytest.raises(
        RuntimeError if message == WRONG_COUNT else ValueError,
        match=expected(message, "rank 0: restore received 3 results for 2 particles"),
    ):
        restore_results(machine, indices, pots, fields, particles, original)
    assert observed(machine) == before
    assert not any(p.any() for p in particles.pot)


@pytest.mark.parametrize(
    "columns, message",
    [
        ([[np.ones(2), np.ones(2), np.ones(0)]], "column 0, rank 1: data has 2 rows"),
        ([[np.ones(2), np.ones(1), np.ones(0)], [np.ones(2), np.ones(1), np.ones(1)]],
         "column 1, rank 2: data has 1 rows"),
        ([[np.ones(2), np.ones(1, dtype=np.float32), np.ones(0)]], "column 0: rank 1 has dtype"),
        ([[np.ones((2, 3)), np.ones((1, 2)), np.ones((0, 3))]], "trailing shape"),
        ([[np.ones(2), np.ones(1)]], "2 per-rank arrays for 3 ranks"),
        ([[np.ones((2, 0)), np.ones((1, 0)), np.ones((0, 0))]], "zero-size rows"),
        ([], "at least one data column"),
    ],
)
def test_rejected_execute(machine, columns, message):
    plan = ResortPlan(
        machine, [packed([1, 2], [0, 0]), packed([0], [0]), EMPTY], [2, 1, 0], [1, 1, 1]
    )
    before = observed(machine), dataclasses.replace(plan.stats)
    with pytest.raises(ValueError, match=message):
        plan.execute(columns)
    assert (observed(machine), plan.stats) == before
