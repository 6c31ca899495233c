"""Resort indices: 64-bit packed (target rank, target position) values.

Method B's central data structure (Sect. III-B of the paper): after a solver
has reordered and redistributed the particles, it leaves behind *resort
indices* — for each **original** particle, a 64-bit integer whose upper
32 bits hold the target process rank and whose lower 32 bits hold the target
position on that process.  The library functions
``fcs_resort_floats``/``fcs_resort_ints`` then move any additional
application-specific particle data (velocities, accelerations, ...) to the
solver-specific order and distribution using one fine-grained
redistribution followed by a local permutation.

The same packing is used for the *index values* the P2NFFT solver attaches
to particle copies ("an 64-bit integer using 32 bit to store the rank of the
source process and 32 bit to store the source position", Sect. III-A), and
for the FMM's global consecutive initial numbering.  :data:`GHOST_INDEX`
marks ghost-particle duplicates ("ghost particles have an invalid index
value").
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fine_grained import counted_route, send_route
from repro.core.particles import ColumnBlock, RankMajor
from repro.simmpi.machine import Machine

__all__ = [
    "RESORT_POS_BITS",
    "RANK_LIMIT",
    "POSITION_LIMIT",
    "GHOST_INDEX",
    "pack_resort_index",
    "unpack_resort_index",
    "initial_numbering",
    "inverse_permutation",
    "check_target_slots",
    "deliver_to_slots",
    "invert_indices",
    "apply_resort",
]

#: number of low bits storing the target position (upper bits: target rank)
RESORT_POS_BITS = 32
_POS_MASK = (1 << RESORT_POS_BITS) - 1

#: exclusive upper bound on packable ranks.  Positions get the full 32 bits,
#: but ranks only 31: the packed value lives in a *signed* int64 whose sign
#: bit is reserved for :data:`GHOST_INDEX`, so a rank with bit 31 set would
#: shift into the sign bit and collide with the ghost marker.
RANK_LIMIT = 1 << (63 - RESORT_POS_BITS)

#: exclusive upper bound on packable positions
POSITION_LIMIT = 1 << RESORT_POS_BITS

#: invalid index value marking ghost-particle duplicates
GHOST_INDEX = np.int64(-1)


def pack_resort_index(ranks: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Pack (rank, position) pairs into int64 index values."""
    ranks = np.asarray(ranks, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if np.any(ranks < 0) or np.any(ranks >= RANK_LIMIT):
        raise ValueError(f"ranks out of range [0, {RANK_LIMIT})")
    if np.any(positions < 0) or np.any(positions >= POSITION_LIMIT):
        raise ValueError(f"positions out of range [0, {POSITION_LIMIT})")
    return (ranks << RESORT_POS_BITS) | positions


def unpack_resort_index(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_resort_index`; returns ``(ranks, positions)``."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices < 0):
        raise ValueError("cannot unpack invalid (ghost) index values")
    return indices >> RESORT_POS_BITS, indices & _POS_MASK


def initial_numbering(counts: Sequence[int]) -> RankMajor:
    """Rank-major packed (rank, local position) numbering of the particles.

    This is the "consecutive numbering of the initial particles ... such
    that the particles of each single process are consecutively numbered"
    the FMM solver carries through its parallel sort (Sect. III-A).
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    ranks = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    packed = pack_resort_index(ranks, np.arange(offsets[-1], dtype=np.int64) - offsets[ranks])
    return RankMajor(packed, offsets)


def inverse_permutation(positions: np.ndarray, n: int, rank: int) -> np.ndarray:
    """Invert target positions into a scatter permutation, validating once.

    ``positions[i]`` is the target slot of incoming row ``i``; the returned
    ``perm`` satisfies ``out[p] = incoming[perm[p]]``.  Raises if the
    positions do not hit each slot ``[0, n)`` exactly once — the permutation
    contract every resort relies on (and the validation a compiled
    :class:`~repro.core.plan.ResortPlan` performs once instead of per call).
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape != (n,):
        raise ValueError(
            f"rank {rank}: {positions.shape[0]} target positions for {n} slots"
        )
    if n and (
        positions.min() < 0
        or positions.max() >= n
        or np.any(np.bincount(positions, minlength=n) != 1)
    ):
        raise ValueError(f"rank {rank}: target positions are not a permutation")
    perm = np.empty(n, dtype=np.int64)
    perm[positions] = np.arange(n, dtype=np.int64)
    return perm


def check_target_slots(
    ranks: np.ndarray,
    positions: np.ndarray,
    counts: Sequence[int],
    count_error: Callable[[int, int, int], Exception],
) -> None:
    """Validate the targets of a whole resort before anything is shipped.

    Row ``i`` goes to slot ``positions[i]`` of rank ``ranks[i]`` (valid
    ranks); rank ``r`` has ``counts[r]`` slots.  Every rank must be sent
    exactly as many rows as it has slots — else ``count_error(rank, sent,
    slots)`` is raised — and every slot exactly one row.  The lowest
    offending rank is reported, its count before its slots.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    sent = np.bincount(ranks, minlength=counts.shape[0])
    inside = positions < counts[ranks]
    hits = np.bincount((offsets[ranks] + positions)[inside], minlength=int(offsets[-1]))
    offending = sent != counts
    offending[ranks[~inside]] = True
    offending[np.searchsorted(offsets, np.flatnonzero(hits != 1), side="right") - 1] = True
    if offending.any():
        rank = int(np.argmax(offending))
        if sent[rank] != counts[rank]:
            raise count_error(rank, int(sent[rank]), int(counts[rank]))
        raise ValueError(f"rank {rank}: target positions are not a permutation")


def deliver_to_slots(
    machine: Machine,
    rows: RankMajor,
    index: str,
    counts: Sequence[int],
    phase: Optional[str],
    comm: str,
    count_error: Callable[[int, int, int], Exception],
) -> ColumnBlock:
    """Send each row of the rank-major block ``rows`` to the ``(rank,
    position)`` packed in its ``index`` column and store it there: one
    fine-grained redistribution followed by the local permutation, for all
    ranks at once.  Every slot is known before anything moves, so the
    exchange (index column included) is charged from its message counts
    and every column is gathered once, straight into the slots.

    Returns the other columns as one block over the slots of all ranks
    (rank ``r`` owns ``counts[r]`` rows from row ``sum(counts[:r])`` on).
    A ghost index, a target that is not a rank, a rank sent more or fewer
    rows than it has slots (``count_error``) or a slot named twice raise
    before anything is exchanged or charged.
    """
    ranks, positions = unpack_resort_index(rows.data[index])
    route = counted_route(rows.offsets, ranks)
    check_target_slots(ranks, positions, counts, count_error)
    send_route(machine, route, rows.data, phase, comm)
    slots = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))[ranks] + positions
    place = np.empty_like(slots)
    place[slots] = np.arange(slots.shape[0], dtype=np.int64)
    return rows.data.drop(index).take(place)


def invert_indices(
    machine: Machine,
    origloc: Union[RankMajor, Sequence[np.ndarray]],
    orig_counts: Sequence[int],
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> RankMajor:
    """Invert a distributed permutation given in original-location form.

    ``origloc`` holds, rank-major, the packed original location (rank,
    position) of the particle currently stored at each position of each
    rank — the numbering that the solvers carried through their reordering
    (one array per rank is concatenated once, here).  The inverse, returned
    here, is the *resort index* column: rank ``s`` owns ``orig_counts[s]``
    entries, and the entry at original position ``p`` packs the particle's
    **current** (changed) location.

    Implemented exactly as the paper describes for the FMM (Fig. 5):
    initialize new index values consecutively for the changed particles and
    send them back according to the original numbering — one fine-grained
    redistribution plus a local permutation.  This inversion is the
    "additional communication step required for resorting" that makes
    method B pay off only when its other redistributions shrink.
    """
    if len(origloc) != machine.nprocs or len(orig_counts) != machine.nprocs:
        raise ValueError("origloc/orig_counts must have one entry per rank")
    origloc = RankMajor.of(origloc)
    rows = ColumnBlock(
        origloc=np.asarray(origloc.data, dtype=np.int64),
        current=initial_numbering(origloc.counts).data,
    )
    placed = deliver_to_slots(
        machine, RankMajor(rows, origloc.offsets), "origloc", orig_counts, phase, comm,
        lambda rank, sent, n: ValueError(
            f"rank {rank}: received {sent} index values for {n} original particles"
        ),
    )
    counts = np.asarray(orig_counts, dtype=np.int64)
    # local permutation cost: scatter 8-byte values into place, per rank
    machine.copy(8.0 * counts.astype(np.float64), phase)
    return RankMajor(placed["current"], np.concatenate(([0], np.cumsum(counts))))


def apply_resort(
    machine: Machine,
    resort_indices: Union[RankMajor, Sequence[np.ndarray]],
    data: Union[RankMajor, Sequence[ColumnBlock]],
    new_counts: Sequence[int],
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> RankMajor:
    """Redistribute additional particle data according to resort indices.

    This is the one-shot engine behind the legacy resort path: each original
    particle's extra columns are sent to the target process from its resort
    index and stored at the target position ("the fine-grained data
    redistribution operation followed by a permutation according to the
    target positions contained in the resort indices", Sect. III-B).  The
    schedule (grouping, counts, target permutation) is recomputed — and an
    8-byte index column shipped — on *every* call; repeated resorts with the
    same indices should compile a :class:`~repro.core.plan.ResortPlan`
    instead and reuse it.
    """
    if not (len(resort_indices) == len(data) == len(new_counts) == machine.nprocs):
        raise ValueError("per-rank sequences must have one entry per rank")
    resort_indices, data = RankMajor.of(resort_indices), RankMajor.of(data)
    r = resort_indices.first_ragged(data.offsets)
    if r is not None:
        raise ValueError(
            f"rank {r}: {int(resort_indices.counts[r])} resort indices for "
            f"{int(data.counts[r])} data rows"
        )
    rows = ColumnBlock(
        **{name: data.data[name] for name in data.data},
        _resort=np.asarray(resort_indices.data, dtype=np.int64),
    )
    placed = deliver_to_slots(
        machine, RankMajor(rows, data.offsets), "_resort", new_counts, phase, comm,
        lambda rank, sent, n: ValueError(f"rank {rank}: received {sent} rows, expected {n}"),
    )
    counts = np.asarray(new_counts, dtype=np.int64)
    machine.copy((placed.row_nbytes * counts).astype(np.float64), phase)
    return RankMajor(placed, np.concatenate(([0], np.cumsum(counts))))
