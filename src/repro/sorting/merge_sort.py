"""Merge-based parallel sorting [15] on Batcher's merge-exchange network.

Each rank holds one locally sorted run; the network's comparator rounds are
executed as pairwise point-to-point merge steps (``MPI_Sendrecv``-style
exchanges, no collectives).  A comparator ``(a, b)`` establishes the
invariant "every key on rank *a* <= every key on rank *b*" while keeping the
per-rank element counts unchanged.

The crucial property for the paper's method B: before data moves, the pair
exchanges a constant-size control message (count, min key, max key).  If the
runs are already ordered — the common case when particles moved only
slightly since the previous time step — *no particle data is exchanged at
all*.  Otherwise only the overlap window ``[b.min, a.max]`` travels, which
for almost-sorted data is a small fraction of the particles.  This is why
"sorting the particles in this case causes that a majority of the particles
stays on its current process" translates into tiny redistribution times
(Fig. 7/8).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.core.fine_grained import stable_order
from repro.core.particles import ColumnBlock, RankMajor
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs
from repro.sorting.batcher import merge_exchange_rounds

__all__ = ["merge_exchange_sort", "local_sort"]


def order_within_ranks(keys: np.ndarray, offsets: np.ndarray) -> Optional[np.ndarray]:
    """The permutation that sorts every rank's rows stably by key, for all
    ranks at once, or ``None`` when they are in order already.

    The rank goes into the bits above the widest key and one
    :func:`~repro.core.fine_grained.stable_order` of the composite orders
    everything.  Keys that leave no room for the rank (or are not
    non-negative integers) are ordered by key, then stably by rank.
    """
    P = offsets.shape[0] - 1
    rank = np.repeat(np.arange(P, dtype=np.uint64), np.diff(offsets))
    integral = keys.dtype.kind == "u" or (keys.dtype.kind == "i" and not np.any(keys < 0))
    bits = int(keys.max()).bit_length() if integral and keys.size else 0
    if not integral or bits + (P - 1).bit_length() > 64:
        by_key = stable_order(keys)
        by_rank = None if by_key is None else stable_order(rank[by_key])
        return by_key if by_rank is None else by_key[by_rank]
    rank <<= np.uint64(bits)
    rank |= keys.astype(np.uint64, copy=False)
    return stable_order(rank)


def sorted_within_ranks(blocks: RankMajor, key: str) -> ColumnBlock:
    """A fresh copy of ``blocks``' rows, every rank's stably sorted by ``key``."""
    order = order_within_ranks(blocks.data[key], blocks.offsets)
    return blocks.data.copy() if order is None else blocks.data.take(order)


def local_sort(
    machine: Machine,
    blocks: Union[RankMajor, Sequence[ColumnBlock]],
    key: str,
    phase: Optional[str] = None,
) -> RankMajor:
    """Stable sort of every rank's rows by the ``key`` column (one block per
    rank is concatenated once, here): one gather over the rank-major block."""
    blocks = RankMajor.of(blocks)
    out = RankMajor(sorted_within_ranks(blocks, key), blocks.offsets)
    charge_local_sort(machine, blocks.column(key), phase)
    return out


def charge_local_sort(machine: Machine, keys: RankMajor, phase: Optional[str]) -> None:
    """Charge the local sorts of the rank-major ``keys``, read from them alone."""
    # adaptive (timsort-like) cost: nearly sorted runs cost a single pass,
    # disordered data the full n log n — this is what makes method B's
    # steady-state local sorts cheap.  A descent counts for the rank holding
    # both rows.
    n, offsets, keys = keys.counts, keys.offsets, keys.data
    rows = np.flatnonzero(keys[1:] < keys[:-1]) + 1  # the lower row of every descent
    rank = np.searchsorted(offsets, rows, side="right") - 1
    descents = np.bincount(rank[offsets[rank] != rows], minlength=n.shape[0])
    cost = np.zeros(machine.nprocs, dtype=np.float64)
    many = n > 1
    disorder = descents[many] / (n[many] - 1)
    cost[many] = kernels.SORT_STEP * n[many] * (1.0 + disorder * np.log2(n[many]))
    machine.compute(cost, phase)


def merge_exchange_sort(
    machine: Machine,
    blocks: Union[RankMajor, Sequence[ColumnBlock]],
    key: str,
    phase: Optional[str] = None,
    *,
    presorted: bool = False,
    verify: bool = True,
) -> Tuple[RankMajor, bool]:
    """Sort distributed blocks globally by ``key`` with merge-exchange.

    Parameters
    ----------
    blocks:
        the rows of all ranks, rank-major (one block per rank is
        concatenated once, here); per-rank counts are preserved (a
        comparator splits the merged pair back at the original counts).
    presorted:
        skip the initial local sorts when each rank's rows are already
        locally sorted (the method-B steady state: the previous step's
        output order plus slight position drift re-keyed and locally
        re-sorted by the caller).
    verify:
        exchange boundary keys after the network and reduce a global
        sortedness flag (one cheap extra round).  The comparator network is
        only *guaranteed* to sort equal-size blocks [16]; with the nearly
        equal counts of the method-B steady state failures are rare but
        possible, and callers fall back to the partition-based sort on the
        (now almost sorted) data when the flag is False.

    Returns ``(blocks, sorted_ok)``; the rank-major result satisfies "each
    rank locally sorted, counts unchanged", and additionally ``max(key on
    rank i) <= min(key on rank j)`` for all ``i < j`` whenever ``sorted_ok``.
    The caller's rows are never written.
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    current = RankMajor.of(blocks) if presorted else local_sort(machine, blocks, key, phase)
    P = machine.nprocs
    if P == 1:
        return current, True

    # Counts never change, so the distributed array stays one flat block cut
    # at fixed offsets, and a comparator round is a handful of array
    # operations over its pairs and the rows of all its windows.
    flat, offsets = current.data, current.offsets
    counts = current.counts
    keys = flat[key]
    # rows a merge may write: the local sort's own gather, else a copy made
    # by the first round that moves data
    writable = not presorted
    filled = np.flatnonzero(counts)
    first, last = offsets[filled], offsets[filled + 1] - 1
    control = np.zeros((P, 3), dtype=np.uint64)  # (count, min key, max key), 24 bytes a rank
    control[:, 0] = counts

    for round_pairs in merge_exchange_rounds(P):
        ends = np.asarray(round_pairs, dtype=np.int64)
        # 1. control exchange: (count, min, max) both ways for every pair
        control[filled, 1] = keys[first]
        control[filled, 2] = keys[last]
        exchange_pairs(machine, ends, np.full(ends.shape, control[0].nbytes), phase)
        # 2. decide which pairs actually overlap: both non-empty and
        #    a.max > b.min; already ordered pairs move no particle data
        ctrl_a, ctrl_b = control[ends[:, 0]], control[ends[:, 1]]
        hits = np.flatnonzero(
            (ctrl_a[:, 0] > 0) & (ctrl_b[:, 0] > 0) & (ctrl_a[:, 2] > ctrl_b[:, 1])
        )
        if not hits.size:
            continue
        if not writable:
            flat, writable = flat.copy(), True
            keys = flat[key]
        # windows are a suffix of a (keys >= b.min) and a prefix of b
        # (keys <= a.max), both non-empty whenever the runs overlap; per
        # window: a's start, a's end, b's start, b's end
        a, b = ends[hits, 0], ends[hits, 1]
        spans = np.stack((
            _insertion_points(keys, offsets[a], offsets[a + 1], ctrl_b[hits, 1], "left"),
            offsets[a + 1],
            offsets[b],
            _insertion_points(keys, offsets[b], offsets[b + 1], ctrl_a[hits, 2], "right"),
        ), axis=1).reshape(-1, 2)
        sizes = spans[:, 1] - spans[:, 0]
        # 3. window exchange (both directions overlap, one message each way)
        exchange_pairs(machine, ends[hits], sizes.reshape(-1, 2) * flat.row_nbytes, phase)
        # 4. each side merges its own window with the one it received and
        #    keeps its share of the original counts: a the lowest na_win, b
        #    the highest nb_win.  Both sides sort the same combined window
        #    (a-window, b-window) stably, so the merged rows of a window go
        #    back, in order, to the very rows they came from — and one
        #    stable (window, key) sort of the rows of the whole round is
        #    every pair's merge at once.
        rows = np.repeat(spans[:, 0] - (np.cumsum(sizes) - sizes), sizes)
        rows += np.arange(rows.shape[0])
        w = sizes.reshape(-1, 2).sum(axis=1)
        merged = order_within_ranks(keys[rows], np.concatenate(([0], np.cumsum(w))))
        merged = rows if merged is None else rows[merged]
        for column in flat.payload():
            column[rows] = np.take(column, merged, axis=0)
        merge_cost = np.zeros(P, dtype=np.float64)
        big = w > 1
        merge_cost[a[big]] = merge_cost[b[big]] = kernels.SORT_STEP * w[big] * np.log2(w[big])
        machine.compute(merge_cost, phase)

    current = RankMajor(flat, offsets)
    if not verify:
        return current, True
    return current, _verify_sorted(machine, current.column(key), phase)


def _insertion_points(
    keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, values: np.ndarray, side: str
) -> np.ndarray:
    """Per ``i``, where ``np.searchsorted(keys[lo[i]:hi[i]], values[i],
    side)`` would insert, as an index into ``keys``: one bisection over all
    the searches at once, comparing in the common type ``searchsorted``
    compares in."""
    common = np.result_type(keys.dtype, values.dtype)
    values = values.astype(common, copy=False)
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        live = lo < hi
        mid = (lo + hi) >> 1
        probe = keys[np.where(live, mid, 0)].astype(common, copy=False)
        right = live & ((probe < values) if side == "left" else (probe <= values))
        lo = np.where(right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)
    return lo


def _verify_sorted(machine: Machine, keys: RankMajor, phase: Optional[str]) -> bool:
    """Boundary-key ring check plus a small reduction of the ok-flags."""
    from repro.simmpi.collectives import allreduce
    from repro.simmpi.p2p import charge_round

    flat, offsets = keys.data, keys.offsets
    # each non-empty rank sends its max key to the next non-empty rank: one
    # round of one-key messages
    nonempty = np.flatnonzero(keys.counts)
    src, dst = nonempty[:-1], nonempty[1:]
    charge_round(machine, src, dst, np.full(src.shape, flat.itemsize, dtype=np.int64), phase)
    ok = np.ones(machine.nprocs)
    ok[dst[flat[offsets[src + 1] - 1] > flat[offsets[dst]]]] = 0.0
    return bool(allreduce(machine, ok, op="min", phase=phase) > 0.5)
