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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.particles import ColumnBlock
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs
from repro.sorting.batcher import merge_exchange_rounds

__all__ = ["merge_exchange_sort", "local_sort"]


def local_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
) -> List[ColumnBlock]:
    """Stable per-rank sort of every block by its ``key`` column."""
    out: List[ColumnBlock] = []
    cost = np.zeros(machine.nprocs, dtype=np.float64)
    for r, block in enumerate(blocks):
        keys = block[key]
        order = np.argsort(keys, kind="stable")
        out.append(block.take(order))
        n = keys.shape[0]
        if n > 1:
            # adaptive (timsort-like) cost: nearly sorted runs cost a single
            # pass, disordered data the full n log n — this is what makes
            # method B's steady-state local sorts cheap
            disorder = float(np.count_nonzero(keys[1:] < keys[:-1])) / (n - 1)
            cost[r] = kernels.SORT_STEP * n * (1.0 + disorder * np.log2(n))
    machine.compute(cost, phase)
    return out


def merge_exchange_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    presorted: bool = False,
    verify: bool = True,
) -> Tuple[List[ColumnBlock], bool]:
    """Sort distributed blocks globally by ``key`` with merge-exchange.

    Parameters
    ----------
    blocks:
        one block per rank; per-rank counts are preserved (a comparator
        splits the merged pair back at the original counts).
    presorted:
        skip the initial local sorts when each rank's block is already
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

    Returns ``(blocks, sorted_ok)``; blocks satisfy "each block locally
    sorted, counts unchanged", and additionally ``max(key on rank i) <=
    min(key on rank j)`` for all ``i < j`` whenever ``sorted_ok``.
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    current = list(blocks) if presorted else local_sort(machine, blocks, key, phase)
    P = machine.nprocs
    if P == 1:
        return current, True

    # Counts never change, so the distributed array is one flat block cut at
    # fixed offsets and a comparator round is a handful of array operations
    # over the rows of all its windows; only the two searches and the two
    # message payloads of a window are still made pair by pair.
    counts = np.asarray([b.n for b in current], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    start = offsets.tolist()
    keys = np.concatenate([b[key] for b in current])
    flat: Optional[ColumnBlock] = None  # every column; built by the first round that moves data
    filled = np.flatnonzero(counts)
    first, last = offsets[filled], offsets[filled + 1] - 1
    control = np.zeros((P, 3), dtype=np.uint64)  # (count, min key, max key), 24 bytes a rank
    control[:, 0] = counts

    for round_pairs in merge_exchange_rounds(P):
        # 1. control exchange: (count, min, max) both ways for every pair
        control[filled, 1] = keys[first]
        control[filled, 2] = keys[last]
        received = exchange_pairs(
            machine, [(a, b, control[a], control[b]) for a, b in round_pairs], phase
        )
        # 2. decide which pairs actually overlap: both non-empty and
        #    a.max > b.min; already ordered pairs move no particle data
        got = np.concatenate([c for pair in round_pairs for c in received[pair]])
        ctrl_b, ctrl_a = got.reshape(-1, 2, 3).transpose(1, 0, 2)  # received at a: b's control
        overlap = (ctrl_a[:, 0] > 0) & (ctrl_b[:, 0] > 0) & (ctrl_a[:, 2] > ctrl_b[:, 1])
        hits = np.flatnonzero(overlap).tolist()
        if not hits:
            continue
        if flat is None:
            flat = ColumnBlock.concat(current)
            keys = flat[key]
        columns = flat.payload()
        # windows are a suffix of a (keys >= b.min) and a prefix of b
        # (keys <= a.max), both non-empty whenever the runs overlap
        exchanges = []
        bounds: List[int] = []  # per window: a's start, a's end, b's start, b's end
        merge_cost = np.zeros(P, dtype=np.float64)
        for i in hits:
            a, b = round_pairs[i]
            end_a, start_b = start[a + 1], start[b]
            na_win = end_a - start[a] - int(
                np.searchsorted(keys[start[a]:end_a], ctrl_b[i, 1], side="left")
            )
            nb_win = int(np.searchsorted(keys[start_b:start[b + 1]], ctrl_a[i, 2], side="right"))
            bounds += (end_a - na_win, end_a, start_b, start_b + nb_win)
            exchanges.append((
                a,
                b,
                tuple(c[end_a - na_win:end_a] for c in columns),
                tuple(c[start_b:start_b + nb_win] for c in columns),
            ))
            w = na_win + nb_win
            if w > 1:
                merge_cost[a] = merge_cost[b] = kernels.SORT_STEP * w * np.log2(w)
        # 3. window exchange (both directions overlap, one message each way)
        exchanged = exchange_pairs(machine, exchanges, phase)
        # 4. each side merges its own window with the one it received and
        #    keeps its share of the original counts: a the lowest na_win, b
        #    the highest nb_win.  Both sides sort the same combined window
        #    (a-window, b-window) stably, so the merged rows of a window go
        #    back, in order, to the very rows they came from — and one
        #    stable (window, key) sort of the delivered rows of the whole
        #    round is every pair's merge at once.
        spans = np.asarray(bounds, dtype=np.int64).reshape(-1, 2)
        sizes = spans[:, 1] - spans[:, 0]
        total = int(sizes.sum())
        rows = np.arange(total) + np.repeat(spans[:, 0] - (np.cumsum(sizes) - sizes), sizes)
        window = np.repeat(np.arange(len(hits)), sizes.reshape(-1, 2).sum(axis=1))
        # delivered in (a-window, b-window) order: what b received, then what a received
        arrived = [exchanged[pair[:2]][side] for pair in exchanges for side in (1, 0)]
        staged = [np.concatenate(pieces) for pieces in zip(*arrived)]
        order = np.lexsort((staged[flat.names().index(key)], window))
        for column, merged in zip(columns, staged):
            column[rows] = np.take(merged, order, axis=0)
        machine.compute(merge_cost, phase)

    if flat is not None:
        current = [flat.row_slice(start[r], start[r + 1]) for r in range(P)]
    if not verify:
        return current, True
    return current, _verify_sorted(machine, current, key, phase)


def _verify_sorted(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str],
) -> bool:
    """Boundary-key ring check plus a small reduction of the ok-flags."""
    from repro.simmpi.collectives import allreduce
    from repro.simmpi.p2p import send_round

    P = machine.nprocs
    nonempty = [r for r in range(P) if blocks[r].n]
    # each non-empty rank sends its max key to the next non-empty rank
    transfers = []
    for i in range(len(nonempty) - 1):
        src, dst = nonempty[i], nonempty[i + 1]
        transfers.append((src, dst, np.asarray([blocks[src][key][-1]])))
    recv = send_round(machine, transfers, phase)
    ok = np.ones(P)
    for r in range(P):
        for _src, payload in recv[r]:
            if blocks[r].n and payload[0] > blocks[r][key][0]:
                ok[r] = 0.0
    return bool(allreduce(machine, ok, op="min", phase=phase) > 0.5)
